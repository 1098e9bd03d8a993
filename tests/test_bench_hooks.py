"""The benchmark's span recorder patches names in the package from outside;
it must find every one of them and put each back."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer

    from residue_lab import residues
    from residue_lab.manifold import frames

    original = frames.curvature_frame
    tracer = Tracer()
    try:
        tracer.install()
        assert residues.curvature_frame is not original
    finally:
        tracer.uninstall()
    assert residues.curvature_frame is frames.curvature_frame is original
