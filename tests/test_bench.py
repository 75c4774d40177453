import pytest

import cfgeom.intervals
from cfgeom import VerificationError, load_scene
from cfgeom.bench import BENCH_ALGS, bench_colors, rows_to_csv


def test_all_algorithms_produce_verified_rows():
    for alg in BENCH_ALGS:
        rows = bench_colors(alg, [12], 2, 0, rho=2.0, k=4.0, probes_count=60)
        assert [(r.n, r.rep) for r in rows] == [(12, 0), (12, 1)]
        assert all(r.verified for r in rows)
        assert all(r.palette_size <= r.bound for r in rows)


def test_rows_canonical_order_and_determinism():
    a = bench_colors("intervals", [20, 10], 2, 5)
    assert [(r.n, r.rep) for r in a] == [(10, 0), (10, 1), (20, 0), (20, 1)]
    b = bench_colors("intervals", [20, 10], 2, 5)
    assert [(r.n, r.rep, r.palette_size, r.bound) for r in a] == [
        (r.n, r.rep, r.palette_size, r.bound) for r in b
    ]
    assert rows_to_csv(a).startswith("n,rep,palette_size,bound,runtime_ms,verified\n")


def test_failing_scene_written(monkeypatch, tmp_path):
    # a broken interval core makes the entry point's certification fail; the
    # bench must save the scene it failed on and re-raise
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cfgeom.intervals, "_interval_chain", lambda ivs: ([1] * len(ivs), [0]))
    with pytest.raises(VerificationError, match="failing scene written"):
        bench_colors("intervals", [30], 1, 0)
    saved = load_scene(tmp_path / "cfgeom-failing-intervals-n30-rep0.json")
    assert len(saved) == 30 and saved.kind == "intervals"


def test_unknown_algorithm():
    with pytest.raises(ValueError):
        bench_colors("mystery", [4], 1, 0)
    with pytest.raises(ValueError):
        bench_colors("intervals", [], 1, 0)
