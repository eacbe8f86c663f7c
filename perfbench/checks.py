"""Answer checks made apart from the solver.

Every check works on plain numbers (layer shapes, tile sizes, reported
figures) with the benchmark's own arithmetic, and returns a list of
problems: an empty list means the answer passed.  Nothing here imports
``repro`` and nothing compares against a stored copy of earlier output,
so a check can only pass when the answer has the property the method
guarantees.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

KiB = 1024
MiB = 1024 * KiB

#: The published figures of the Intel Core i7-9700K the paper evaluates on.
I7_9700K = {
    "cores": 8,
    "ghz": 3.6,
    "vector_lanes": 8,  # AVX2, 32-bit floats
    "fma_units": 2,
    "cache_bytes": {"L1": 32 * KiB, "L2": 256 * KiB, "L3": 12 * MiB},
    # The faster of the single-core and all-core DRAM figures, so the
    # traffic bound below is a lower bound under either model.
    "dram_gbps": 38.0,
    "dtype_bytes": 4,
}

#: Fraction of each cache level the solver's tiles may occupy (the
#: optimizer's documented ``capacity_fraction`` default).
CAPACITY_FRACTION = 0.8

LOOPS = ("n", "k", "c", "r", "s", "h", "w")
CACHE_LEVELS = ("L1", "L2", "L3")
REL_TOL = 1e-9


def peak_gflops(machine: Mapping = I7_9700K) -> float:
    """cores x GHz x vector lanes x FMA units x 2 flops per FMA."""
    return (
        machine["cores"] * machine["ghz"] * machine["vector_lanes"]
        * machine["fma_units"] * 2
    )


def extents(layer: Mapping[str, int]) -> Dict[str, int]:
    """Loop extents of one conv2d layer (output spatial extents for h/w).

    ``layer`` holds ``batch, k, c, in_h, in_w, r, s, stride, dilation,
    padding``.
    """
    def out(size: int, kernel: int) -> int:
        span = (kernel - 1) * layer["dilation"] + 1
        return (size + 2 * layer["padding"] - span) // layer["stride"] + 1

    return {
        "n": layer["batch"], "k": layer["k"], "c": layer["c"],
        "r": layer["r"], "s": layer["s"],
        "h": out(layer["in_h"], layer["r"]), "w": out(layer["in_w"], layer["s"]),
    }


def macs(layer: Mapping[str, int]) -> int:
    return math.prod(extents(layer).values())


def footprint(layer: Mapping[str, int], tiles: Mapping[str, float]) -> float:
    """Elements of In, Ker and Out one tile touches."""
    t = tiles
    in_h = (t["h"] - 1) * layer["stride"] + (t["r"] - 1) * layer["dilation"] + 1
    in_w = (t["w"] - 1) * layer["stride"] + (t["s"] - 1) * layer["dilation"] + 1
    tensor_in = t["n"] * t["c"] * in_h * in_w
    tensor_ker = t["k"] * t["c"] * t["r"] * t["s"]
    tensor_out = t["n"] * t["k"] * t["h"] * t["w"]
    return tensor_in + tensor_ker + tensor_out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_tiles(
    layer: Mapping[str, int],
    tiles_by_level: Mapping[str, Mapping[str, float]],
    machine: Mapping = I7_9700K,
) -> List[str]:
    """Tiles nest (Reg <= L1 <= L2 <= L3 <= extent) and fit their caches.

    ``tiles_by_level`` maps ``Reg``/``L1``/``L2``/``L3`` to tile sizes; each
    cache level's tile must fit ``CAPACITY_FRACTION`` of that cache.
    """
    name = layer.get("name", "?")
    problems: List[str] = []
    ext = extents(layer)
    chain = [level for level in ("Reg",) + CACHE_LEVELS if level in tiles_by_level]
    if chain != ["Reg", *CACHE_LEVELS]:
        problems.append(f"{name}: levels {sorted(tiles_by_level)} are not Reg/L1/L2/L3")
    for index in LOOPS:
        sizes = [tiles_by_level[level][index] for level in chain] + [ext[index]]
        if any(inner > outer for inner, outer in zip(sizes, sizes[1:])):
            problems.append(f"{name}: tiles of {index} do not nest: {sizes}")
        if sizes[0] < 1:
            problems.append(f"{name}: tile of {index} below 1: {sizes[0]}")
    for level in chain[1:]:
        used = footprint(layer, tiles_by_level[level])
        room = CAPACITY_FRACTION * machine["cache_bytes"][level] / machine["dtype_bytes"]
        if used > room:
            problems.append(
                f"{name}: {level} tile needs {used:.0f} elements, room for {room:.0f}"
            )
    return problems


def check_figures(
    layer: Mapping[str, int],
    gflops: float,
    time_s: float,
    machine: Mapping = I7_9700K,
) -> List[str]:
    """GFLOPS is 2*MACs/time, at most peak, and time covers compulsory traffic."""
    name = layer.get("name", "?")
    if not (time_s > 0 and math.isfinite(time_s)):
        return [f"{name}: time {time_s!r} is not a positive number"]
    problems: List[str] = []
    implied = 2 * macs(layer) / time_s / 1e9
    if not _close(gflops, implied):
        problems.append(f"{name}: {gflops} GFLOPS but 2*MACs/time gives {implied}")
    peak = peak_gflops(machine)
    if gflops > peak * (1 + REL_TOL):
        problems.append(f"{name}: {gflops} GFLOPS above the {peak} GFLOPS peak")
    compulsory = footprint(layer, extents(layer)) * machine["dtype_bytes"]
    floor_s = compulsory / (machine["dram_gbps"] * 1e9)
    if time_s < floor_s * (1 - REL_TOL):
        problems.append(
            f"{name}: {time_s} s is below the compulsory-traffic floor {floor_s} s"
        )
    return problems


def check_repeat(previous: Sequence, current: Sequence) -> List[str]:
    """Two passes over the same inputs must give bitwise-equal answers."""
    if list(previous) == list(current):
        return []
    differing = [
        i for i, (a, b) in enumerate(zip(previous, current)) if a != b
    ]
    return [
        f"answers differ from the previous pass at {len(differing)} of "
        f"{len(current)} positions (first: {differing[:1]})"
        if differing else "answers differ in length from the previous pass"
    ]


def check_served_layers(
    served: Iterable[Tuple[str, Tuple[float, float]]],
    reference: Mapping[str, Tuple[float, float]],
) -> List[str]:
    """Every served ``(shape, (gflops, time))`` equals the set-up answer."""
    problems = []
    for shape, answer in served:
        expected = reference.get(shape)
        if expected is None:
            problems.append(f"served shape {shape} has no set-up answer")
        elif tuple(answer) != tuple(expected):
            problems.append(f"shape {shape}: served {answer}, set-up gave {expected}")
    return problems


def check_network_total(
    total_gflops: float, layer_flops: Sequence[float], layer_times: Sequence[float]
) -> List[str]:
    """A network's GFLOPS is its total flops over its summed layer time."""
    implied = sum(layer_flops) / sum(layer_times) / 1e9
    if _close(total_gflops, implied):
        return []
    return [f"network reports {total_gflops} GFLOPS, flops/time gives {implied}"]


def dominated(point: Tuple[float, ...], others: Iterable[Tuple[float, ...]]) -> bool:
    """Whether some other point is no worse everywhere and better somewhere."""
    return any(
        all(o <= p for o, p in zip(other, point))
        and any(o < p for o, p in zip(other, point))
        for other in others
    )


def failed_candidates(outcomes: Sequence[Mapping]) -> int:
    """Sweep candidates whose evaluation failed (any status but ``ok``)."""
    return sum(1 for o in outcomes if o["status"] != "ok")


def response_failed(degraded: bool, served: int, requested: int) -> bool:
    """A served request failed when it came back degraded or short.

    A degraded response holds the fallback strategy's figures, not the
    requested strategy's; a short one leaves operators unanswered.
    """
    return degraded or served != requested


def check_sweep(
    expected_candidates: int,
    outcomes: Sequence[Mapping],
    frontier: Sequence[Mapping],
    best: Mapping,
) -> List[str]:
    """One outcome per candidate, an undominated frontier, a least-time best.

    Outcomes carry ``name``, ``status``, ``time_s`` and ``sram_bytes``;
    the frontier objectives are (time, SRAM), both minimized.  Failed
    candidates are counted by :func:`failed_candidates`; the frontier and
    ``best`` are checked against the candidates that did not fail.
    """
    problems = []
    if len(outcomes) != expected_candidates:
        problems.append(
            f"{len(outcomes)} outcomes for {expected_candidates} candidates"
        )
    ok = [o for o in outcomes if o["status"] == "ok"]
    points = [(o["time_s"], o["sram_bytes"]) for o in ok]
    for point in frontier:
        if dominated((point["time_s"], point["sram_bytes"]), points):
            problems.append(f"frontier point {point['name']} is dominated")
    if not ok:
        return problems + ["no candidate succeeded"]
    if not frontier:
        problems.append("empty frontier")
    least = min(o["time_s"] for o in ok)
    if best["time_s"] != least:
        problems.append(f"best() takes {best['time_s']} s, the least is {least} s")
    return problems
