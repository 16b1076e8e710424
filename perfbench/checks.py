"""Correctness checks on the CLI's outputs.

Each check takes the command's standard output and the run context (the
work directory, the reference values computed by `inputs`, and what
earlier commands of the run printed) and raises Mismatch when the
output is wrong.  A command whose check raises counts as failed.
"""
from __future__ import annotations

import json
from collections import Counter
from pathlib import Path


class Mismatch(Exception):
    """A command's output disagrees with the reference or an earlier output."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def fields(out: str) -> dict[str, str]:
    pairs = (line.split(": ", 1) for line in out.splitlines() if ": " in line)
    return {key: value for key, value in pairs}


def read_hops(path: Path) -> tuple[int, list[int]]:
    lines = [line.strip() for line in path.read_text(encoding="utf-8").splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    expect(lines[0].startswith("d="), f"{path.name}: no d= header")
    return int(lines[0][2:]), [int(line, 2) for line in lines[1:]]


def bisection(d: int, hops: list[int]) -> int:
    """Minimum over r > 0 of the number of hops h with parity(r & h) = 1."""
    return min(sum((r & h).bit_count() & 1 for h in hops) for r in range(1, 1 << d))


def setup_bisect(out: str, ctx: dict) -> None:
    f = fields(out)
    expect((f.get("N"), f.get("b"), f.get("B_links")) == ("8", "2", "8"),
           f"folded 3-cube bisection wrong: {f}")


def mindist(out: str, ctx: dict) -> None:
    ref = ctx["ref"]
    f = fields(out)
    expect(f.get("n") == str(ref["n"]) and f.get("k") == str(ref["k"]), f"mindist size: {f}")
    expect(f.get("min_distance") == str(ref["delta"]),
           f"min_distance {f.get('min_distance')} != reference {ref['delta']}")


def convert(out: str, ctx: dict) -> None:
    text = (ctx["dir"] / "net.hops").read_text(encoding="utf-8")
    expect(text == ctx["ref"]["net_text"], "converted hop set differs from the code's columns")


def bisect(out: str, ctx: dict) -> None:
    """b equals the code's minimum distance (the paper's identity), and every
    method reports the same minimizing partitions as the first one run."""
    ref = ctx["ref"]
    f = fields(out)
    b = int(f.get("b", -1))
    expect(b == ref["delta"], f"b={b} != min_distance {ref['delta']}")
    expect(int(f.get("B_links", -1)) == b * (1 << ref["k"]) // 2, "B_links != b*N/2")
    argmin = ctx.setdefault("argmin_r", f.get("argmin_r"))
    expect(f.get("argmin_r") == argmin, "argmin_r differs between bisection methods")


def compare(out: str, ctx: dict) -> None:
    ref = ctx["ref"]
    rows = json.loads(out)["rows"]
    expect([row["family"] for row in rows] == ["LH", "HC", "FC", "FT"], "compare families")
    lh = rows[0]
    expect(lh["params"]["delta"] == ref["cmp_delta"],
           f"LH delta {lh['params']['delta']} != min_distance {ref['cmp_delta']}")
    expect(lh["max_hops"] == ref["cmp_max_hops"],
           f"LH max_hops {lh['max_hops']} != BFS reference {ref['cmp_max_hops']}")
    expect(lh["avg_hops"] == ref["cmp_avg_hops"],
           f"LH avg_hops {lh['avg_hops']} != BFS reference {ref['cmp_avg_hops']}")


def cluster(levels: int):
    """One row per node in order, and 2**levels labels of equal count.

    Reads the file line by line: the benchmark's own peak RSS must stay
    below its children's, which os.wait4 would otherwise report as theirs.
    """
    def check(out: str, ctx: dict) -> None:
        d = ctx["ref"]["cmp_d"]
        sizes: Counter[str] = Counter()
        with open(ctx["dir"] / "clusters.csv", encoding="utf-8") as rows:
            expect(next(rows) == "node,label\n", "cluster CSV header")
            for x, row in enumerate(rows):
                node, label = row.rstrip("\n").split(",")
                expect(node == f"{x:0{d}b}", f"cluster row {x + 1} is node {node}")
                sizes[label] += 1
        expect(sum(sizes.values()) == 1 << d, "cluster row count")
        expect(sorted(sizes) == sorted(str(c) for c in range(1 << levels)), "cluster label set")
        expect(set(sizes.values()) == {(1 << d) >> levels}, "cluster sizes unequal")
    return check


def optimize(out: str, ctx: dict) -> None:
    """best_b is at least the start's b and is the b of the hop set written."""
    ref = ctx["ref"]
    f = fields(out)
    best_b = int(f.get("best_b", -1))
    expect(best_b >= ref["start_b"], f"best_b {best_b} < start b {ref['start_b']}")
    d, hops = read_hops(ctx["dir"] / "opt.hops")
    expect(f.get("hops") == ",".join(f"{h:0{d}b}" for h in hops), "printed hops != written hops")
    expect(bisection(d, hops) == best_b, "best_b != bisection of the written hop set")


def verify(out: str, ctx: dict) -> None:
    status = {key: value.split(" ", 1)[0] for key, value in fields(out).items()}
    expect(status.get("scan_vs_fwht") == "OK" and status.get("cut_correspondence") == "OK",
           f"verify: {status}")
    expect(status.get("bruteforce_oracle") in ("OK", "skipped"), f"verify: {status}")
    expect(set(status.values()) <= {"OK", "skipped"}, f"verify: {status}")


def ftable(q: int):
    """q*(N-1) rows, and q distinct valid egress ports per destination."""
    def check(out: str, ctx: dict) -> None:
        d, hops = read_hops(ctx["dir"] / "opt.hops")
        lines = (ctx["dir"] / "ftable.csv").read_text(encoding="utf-8").splitlines()
        expect(lines[0] == "selector,destination,egress_port", "ftable header")
        expect(len(lines) - 1 == q * ((1 << d) - 1), f"ftable has {len(lines) - 1} rows")
        ports: dict[str, set[int]] = {}
        for line in lines[1:]:
            _, dest, port = line.split(",")
            ports.setdefault(dest, set()).add(int(port))
        expect(len(ports) == (1 << d) - 1, "ftable destination count")
        expect(all(len(p) == q and p <= set(range(1, len(hops) + 1)) for p in ports.values()),
               "ftable: a destination lacks q distinct valid ports")
    return check


def routes(dest: int, q: int):
    """q paths that reach dest from node 0 and share no edge."""
    def check(out: str, ctx: dict) -> None:
        d, hops = read_hops(ctx["dir"] / "opt.hops")
        f = fields(out)
        expect(f.get("yrel") == f"{dest:0{d}b}" and f.get("count") == str(q), f"routes: {f}")
        paths = [line for line in out.splitlines() if ": " not in line]
        expect(len(paths) == q, "routes path count")
        used: set[tuple[int, int]] = set()
        for line in paths:
            node, edges = 0, set()
            for port in map(int, line.split(",")):
                expect(1 <= port <= len(hops), f"routes: port {port} out of range")
                nxt = node ^ hops[port - 1]
                edges.add((min(node, nxt), max(node, nxt)))
                node = nxt
            expect(node == dest, f"routes: path {line} does not reach the destination")
            expect(not edges & used, "routes: paths share an edge")
            used |= edges
    return check
