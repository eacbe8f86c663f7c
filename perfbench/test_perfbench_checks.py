"""The benchmark's answer checks accept a sound answer and reject broken ones.

Run with:  python3 -m pytest perfbench/test_perfbench_checks.py -q
"""

import checks

# ResNet-18 R9: 256 -> 256 channels, 14x14, 3x3 kernel, stride 1, "same" padding.
R9 = {"name": "R9", "batch": 1, "k": 256, "c": 256, "in_h": 14, "in_w": 14,
      "r": 3, "s": 3, "stride": 1, "dilation": 1, "padding": 1}
TILES = {
    "Reg": {"n": 1, "k": 16, "c": 1, "r": 1, "s": 1, "h": 1, "w": 6},
    "L1": {"n": 1, "k": 16, "c": 16, "r": 3, "s": 3, "h": 2, "w": 14},
    "L2": {"n": 1, "k": 32, "c": 64, "r": 3, "s": 3, "h": 14, "w": 14},
    "L3": {"n": 1, "k": 256, "c": 256, "r": 3, "s": 3, "h": 14, "w": 14},
}


def _time_for(gflops):
    return 2 * checks.macs(R9) / (gflops * 1e9)


def test_sound_layer_passes():
    assert checks.check_tiles(R9, TILES) == []
    assert checks.check_figures(R9, 500.0, _time_for(500.0)) == []


def test_l1_overflow_is_rejected():
    tiles = dict(TILES, L1=dict(TILES["L1"], c=64))
    problems = checks.check_tiles(R9, tiles)
    assert any("L1 tile needs" in p for p in problems)


def test_tiles_that_do_not_nest_are_rejected():
    tiles = dict(TILES, L2=dict(TILES["L2"], w=7))
    assert any("do not nest" in p for p in checks.check_tiles(R9, tiles))


def test_gflops_above_peak_is_rejected():
    assert checks.peak_gflops() == 921.6
    problems = checks.check_figures(R9, 950.0, _time_for(950.0))
    assert any("above the" in p for p in problems)


def test_gflops_not_matching_time_is_rejected():
    problems = checks.check_figures(R9, 500.0, _time_for(400.0))
    assert any("2*MACs/time" in p for p in problems)


def test_time_below_traffic_floor_is_rejected():
    # A 1x1 conv over a large image moves far more data than it computes.
    wide = dict(R9, k=64, c=64, in_h=224, in_w=224, r=1, s=1, padding=0)
    fast = 1e-6
    gflops = 2 * checks.macs(wide) / fast / 1e9
    problems = checks.check_figures(wide, gflops, fast)
    assert any("compulsory-traffic floor" in p for p in problems)


def test_answers_that_do_not_repeat_are_rejected():
    first = [["R9", 500.0, 4.6e-4]]
    assert checks.check_repeat(first, [["R9", 500.0, 4.6e-4]]) == []
    assert checks.check_repeat(first, [["R9", 500.0000001, 4.6e-4]])


def test_served_layer_differing_from_setup_is_rejected():
    reference = {"shape-a": (500.0, 4.6e-4)}
    assert checks.check_served_layers([("shape-a", (500.0, 4.6e-4))], reference) == []
    problems = checks.check_served_layers([("shape-a", (499.0, 4.6e-4))], reference)
    assert problems and "set-up gave" in problems[0]
    assert checks.check_served_layers([("shape-b", (500.0, 4.6e-4))], reference)


def test_network_total_mismatch_is_rejected():
    flops, times = [2e9, 4e9], [0.01, 0.02]
    assert checks.check_network_total(200.0, flops, times) == []
    assert checks.check_network_total(210.0, flops, times)


def _outcome(name, time_s, sram, status="ok"):
    return {"name": name, "status": status, "time_s": time_s, "sram_bytes": sram}


def test_dominated_frontier_point_is_rejected():
    outcomes = [_outcome("a", 1.0, 100), _outcome("b", 2.0, 50), _outcome("c", 2.0, 100)]
    assert checks.check_sweep(3, outcomes, outcomes[:2], outcomes[0]) == []
    problems = checks.check_sweep(3, outcomes, outcomes, outcomes[0])
    assert problems == ["frontier point c is dominated"]


def test_sweep_count_and_best_are_checked():
    outcomes = [_outcome("a", 1.0, 100), _outcome("b", 2.0, 50)]
    problems = checks.check_sweep(3, outcomes, outcomes, outcomes[1])
    assert any("2 outcomes for 3 candidates" in p for p in problems)
    assert any("best()" in p for p in problems)


def test_failed_candidates_are_counted_and_left_out_of_the_checks():
    failed = _outcome("b", float("inf"), 50, status="failed")
    outcomes = [_outcome("a", 1.0, 100), failed, _outcome("c", 3.0, 200, status="failed")]
    assert checks.failed_candidates(outcomes) == 2
    assert checks.failed_candidates(outcomes[:1]) == 0
    # The failed candidate neither dominates nor counts as the least time.
    assert checks.check_sweep(3, outcomes, outcomes[:1], outcomes[0]) == []
    assert checks.check_sweep(1, [failed], [], failed) == ["no candidate succeeded"]


def test_degraded_or_short_responses_count_as_failed():
    assert not checks.response_failed(False, 9, 9)
    assert checks.response_failed(True, 9, 9)
    assert checks.response_failed(False, 8, 9)
