"""Cost models for comparing topology families at equal ports and radix.

Every model answers: to expose P non-oversubscribed server ports using
radix-R switches, how many switches and cables does the family need, and
what are its hop counts?  Trunking (Q parallel cables per logical link)
lets each family scale continuously, so the solved dimension may be
fractional; fractional configurations stand for interpolation between the
neighboring integer ones.

Per family, with trunking factor Q:
  hypercube    dimension D: degree m = D*Q, server ports p = Q (bisection
               b = 1), so R = (D+1)*Q and P = R*2**D/(D+1).
  folded cube  dimension D: m = (D+1)*Q, p = 2*Q (b = 2), R = (D+3)*Q,
               P = 2*R*2**D/(D+3).
  fat tree     L levels: P = 2*(R/2)**L / Q**(L-1), switch count
               (2L-1)*(R/2)**(L-1)/Q**(L-1), ports/switch R/(2L-1); the
               root level fans out over R branches, so a fraction 1/R of
               destinations is reached one level early:
               avg = 2(L-1) - 2/R.
  long hop     code (d, m, delta): 2**d switches, p = delta*Q with
               Q = R/(m + delta), cables/port = m/(2*delta).

The folded-cube average hop count uses the Gaussian approximation of the
binomial weight distribution, mean (D+1)/2 - D/sqrt(2*pi*(D+1)); exact
per-dimension averages differ from this smooth form by about 2% at desk
scale (see tests for both).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .codes import GeneratorMatrix, min_distance
from .construct import code_to_network
from .topology import DEFAULT_MAX_D, distances

__all__ = [
    "Infeasible",
    "ComparisonRow",
    "model_hc",
    "model_fc",
    "model_ft",
    "model_lh",
    "compare",
    "render_text",
    "render_csv",
    "render_json",
    "COLUMNS",
    "UNSUPPORTED_FAMILIES",
]

COLUMNS = (
    "family",
    "switches",
    "ports_per_switch",
    "switches_norm",
    "cables_per_port",
    "cabling_norm",
    "max_hops",
    "avg_hops",
)

UNSUPPORTED_FAMILIES = ("FB", "DF")


class Infeasible(RuntimeError):
    """The family cannot realize the requested ports at the given radix."""


@dataclass(frozen=True)
class ComparisonRow:
    family: str
    params: dict[str, float] = field(compare=False)
    switches: float = 0.0
    ports_per_switch: float = 0.0
    cables_per_port: float = 0.0
    max_hops: int | None = None
    avg_hops: float | None = None
    note: str = ""


def _solve_increasing(fn, lo: float, hi: float, target: float) -> float:
    """Root of fn(x) = target for increasing fn on [lo, hi], by bisection."""
    flo, fhi = fn(lo), fn(hi)
    if not flo <= target <= fhi:
        raise Infeasible(
            f"no solution in [{lo}, {hi}]: need {target} in [{flo:.6g}, {fhi:.6g}]"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _int_ceil(x: float) -> int:
    return int(math.ceil(round(x, 9)))


def _long_hop_cost(r: float, k: float, redundancy: float, delta: int):
    """(Q, switches, ports per switch, cables per port) of the long-hop
    network of an [n = k + redundancy, k, delta] code at radix r: trunking
    Q = r/(n + delta), 2**k switches, delta*Q ports and n/(2*delta) cables
    per port.  The grouping keeps the cubes' k + 1 and k + 3 one addition."""
    q = r / (k + (redundancy + delta))
    return q, 2.0**k, delta * q, (k + redundancy) / (2 * delta)


def _cube(family: str, p: float, r: float, redundancy: int, delta: int, hops) -> ComparisonRow:
    """The [D + redundancy, D, delta] codes' family sized for p ports at
    radix r, its dimension D solved continuously; hops(D) is (max, avg)."""
    if p <= 0 or r <= 0:
        raise Infeasible("ports and radix must be positive")
    dim = _solve_increasing(
        lambda d: delta * r * 2.0**d / (d + (redundancy + delta)), 1.0, 32.0, p
    )
    q, *cost = _long_hop_cost(r, dim, redundancy, delta)
    note = "degenerate: dimension at lower bound" if dim <= 1 + 1e-9 else ""
    # fields in order: switches, ports_per_switch, cables_per_port, max_hops, avg_hops
    return ComparisonRow(family, {"dimension": dim, "Q": q}, *cost, *hops(dim), note)


def model_hc(p: float, r: float) -> ComparisonRow:
    """Trunked hypercube sized for p ports at radix r: the [D, D, 1] code."""
    return _cube("HC", p, r, 0, 1, lambda dim: (_int_ceil(dim), dim / 2))


def _fc_avg_hops(dim: float) -> float:
    n = dim + 1
    return n / 2 - dim / math.sqrt(2 * math.pi * n)


def model_fc(p: float, r: float) -> ComparisonRow:
    """Trunked folded hypercube sized for p ports at radix r: the
    [D + 1, D, 2] code."""
    return _cube("FC", p, r, 1, 2, lambda dim: (_int_ceil(dim / 2), _fc_avg_hops(dim)))


def model_ft(p: float, r: float, levels: int) -> ComparisonRow:
    """Trunked L-level fat tree (folded Clos) sized for p ports at radix r."""
    if levels < 2:
        raise ValueError(f"fat tree needs at least 2 levels, got {levels}")
    if p <= 0 or r <= 0:
        raise Infeasible("ports and radix must be positive")
    half = r / 2
    q = (2 * half**levels / p) ** (1.0 / (levels - 1))
    if q < 1 - 1e-9:
        raise Infeasible(
            f"P={p:.6g} exceeds the untrunked {levels}-level fat tree capacity "
            f"{2 * half ** levels:.6g} at radix {r:.6g}"
        )
    switches = (2 * levels - 1) * half ** (levels - 1) / q ** (levels - 1)
    return ComparisonRow(
        family="FT",
        params={"levels": float(levels), "Q": q},
        switches=switches,
        ports_per_switch=r / (2 * levels - 1),
        cables_per_port=float(levels - 1),
        max_hops=2 * (levels - 1),
        avg_hops=2 * (levels - 1) - 2 / r,
    )


def model_lh(
    p: float,
    r: float,
    code: tuple[int, int, int] | GeneratorMatrix,
) -> ComparisonRow:
    """Long Hop network built from a code given as (d, m, delta) or as an
    explicit generator matrix.

    With a matrix, delta comes from min_distance and, for k <= DEFAULT_MAX_D,
    the hop counts from a breadth-first scan of the constructed network;
    otherwise, and with a bare triple, the hop counts are left empty.  A
    radix too small for the code is refused before that scan, which takes
    seconds at k = 24.
    """
    network = None
    if isinstance(code, GeneratorMatrix):
        d, m = code.k, code.n
        delta = min_distance(code)
        if d <= DEFAULT_MAX_D:
            network = code_to_network(code)
    else:
        d, m, delta = code
    if d < 1 or m < d or delta < 1:
        raise ValueError(f"invalid code parameters (d={d}, m={m}, delta={delta})")
    q, switches, ports, cables = _long_hop_cost(r, d, m - d, delta)
    if q < 1 - 1e-9:
        raise Infeasible(
            f"radix {r:.6g} too small for m + delta = {m + delta} topological"
            " plus server ports"
        )
    max_hops: int | None = None
    avg_hops: float | None = None
    if network is not None:
        summary = distances(network)
        max_hops = summary.diameter
        avg_hops = summary.mean
    note = ""
    if abs(switches * ports - p) > 1e-3 * max(p, 1.0):
        note = f"supplies {switches * ports:.6g} ports, target {p:.6g}"
    return ComparisonRow(
        family="LH",
        params={"d": float(d), "m": float(m), "delta": float(delta), "Q": q},
        switches=switches,
        ports_per_switch=ports,
        cables_per_port=cables,
        max_hops=max_hops,
        avg_hops=avg_hops,
        note=note,
    )


def compare(
    p: float,
    r: float,
    lh_code: tuple[int, int, int] | GeneratorMatrix,
    ft_levels: int = 4,
) -> list[ComparisonRow]:
    """One row per supported family at common (P, R, oversubscription 1).

    Row order is LH, HC, FC, FT; the LH row is the normalization baseline
    for the *_norm output columns.  A target that fits inside a single
    switch collapses to one flagged row.  P and R must be positive and
    finite.
    """
    for name, value in (("ports", p), ("radix", r)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if p <= r:
        return [
            ComparisonRow(
                family="single",
                params={},
                switches=1.0,
                ports_per_switch=float(p),
                cables_per_port=0.0,
                max_hops=0,
                avg_hops=0.0,
                note="degenerate: target fits in one switch",
            )
        ]
    return [
        model_lh(p, r, lh_code),
        model_hc(p, r),
        model_fc(p, r),
        model_ft(p, r, ft_levels),
    ]


def _norms(rows: list[ComparisonRow]) -> list[tuple[float, float]]:
    base = rows[0]
    out = []
    for row in rows:
        out.append(
            (
                100.0 * row.switches / base.switches,
                100.0 * row.cables_per_port / base.cables_per_port
                if base.cables_per_port
                else 100.0,
            )
        )
    return out


def _cells(row: ComparisonRow, norm: tuple[float, float]) -> list[str]:
    return [
        row.family,
        f"{row.switches:.6f}",
        f"{row.ports_per_switch:.6f}",
        f"{norm[0]:.6f}",
        f"{row.cables_per_port:.6f}",
        f"{norm[1]:.6f}",
        "" if row.max_hops is None else str(row.max_hops),
        "" if row.avg_hops is None else f"{row.avg_hops:.6f}",
    ]


def render_csv(rows: list[ComparisonRow]) -> str:
    lines = [",".join(COLUMNS)]
    for row, norm in zip(rows, _norms(rows)):
        lines.append(",".join(_cells(row, norm)))
    return "\n".join(lines) + "\n"


def render_text(rows: list[ComparisonRow]) -> str:
    table = [list(COLUMNS)]
    for row, norm in zip(rows, _norms(rows)):
        table.append(_cells(row, norm))
    widths = [max(len(line[i]) for line in table) for i in range(len(COLUMNS))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in table
    ]
    for row in rows:
        if row.note:
            lines.append(f"# {row.family}: {row.note}")
    lines.append(f"# unsupported families: {', '.join(UNSUPPORTED_FAMILIES)} (no cost model)")
    return "\n".join(lines) + "\n"


def render_json(rows: list[ComparisonRow]) -> str:
    payload = []
    for row, norm in zip(rows, _norms(rows)):
        payload.append(
            {
                "family": row.family,
                "params": row.params,
                "switches": row.switches,
                "ports_per_switch": row.ports_per_switch,
                "switches_norm": norm[0],
                "cables_per_port": row.cables_per_port,
                "cabling_norm": norm[1],
                "max_hops": row.max_hops,
                "avg_hops": row.avg_hops,
                "note": row.note,
            }
        )
    return json.dumps({"rows": payload, "unsupported": list(UNSUPPORTED_FAMILIES)}, indent=2) + "\n"
