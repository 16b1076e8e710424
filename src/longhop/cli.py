"""Command-line frontend.

Subcommands: bisect, mindist, convert, optimize, routes, ftable, cluster,
compare, verify.  A call builds the parser of the subcommand it names
alone; help, an unknown or missing command, or a top-level argument other
than --seed builds them all.  Exit codes: 0 success, 1 input error,
2 infeasibility.  Data output is deterministic: identical inputs produce
byte-identical output, integers print exactly, reals with 6 decimals.  The
tables with one row per d-bit word (bisect --spectrum, cluster, ftable)
are rendered by gf2.text_rows and written as they are made, never held
whole.  A command opens its -o file before its work, so an unwritable path
is refused at once, and a run that then fails removes the file.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import random
import sys
from pathlib import Path
from typing import Callable, Iterator, TextIO

import numpy as np

from . import codes, compare as cmp_mod, construct, gf2, optimize, routing, topology


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; remap to input-error code 1
    def error(self, message: str):
        raise _UsageError(message)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The file `out`, opened for writing at once, or stdout.  Commands open
    it before their work, so an unwritable path is refused before any; a
    run that fails once it is open removes it, leaving no partial file."""
    if not out:
        yield sys.stdout
        return
    try:
        f = open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
    try:
        with f:
            yield f
    except BaseException as exc:
        if os.path.isfile(out):   # a regular file, never a device such as /dev/null
            os.remove(out)
        if isinstance(exc, OSError):
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
        raise


def _check_cap(d: int, allow_large: bool) -> None:
    """The cap of the commands that write 2**d rows (bisect --spectrum,
    cluster) or run verify's checks, which --allow-large lifts."""
    if d > topology.DEFAULT_MAX_D and not allow_large:
        raise ValueError(f"d={d} exceeds the full-spectrum cap {topology.DEFAULT_MAX_D};"
                         " --allow-large lifts it")


def _cmd_bisect(args) -> int:
    if args.allow_large and not args.spectrum:   # plain bisect streams at any d: nothing to lift
        raise ValueError("--allow-large applies only to --spectrum")
    t = topology.parse_hopset(_read(args.hopfile))
    if args.spectrum:
        _check_cap(t.d, args.allow_large)
    with _output(args.output) as f:
        f.writelines(_bisect_text(t, args))
    return 0


def _bisect_text(t: topology.CayleyTopology, args) -> Iterator[str]:
    result = topology.bisection_scan(t)
    shown = [gf2.word_to_text(r, t.d) for r in result.argmin_rs]
    extra = result.argmin_count - len(shown)
    if args.format == "json":
        payload = {
            "d": t.d,
            "m": t.m,
            "N": t.N,
            "b": result.b,
            "B_links": result.links,
            "argmin_r": shown,
            "argmin_count": result.argmin_count,
        }
        head = json.dumps(payload, indent=2)[: -len("\n}")]
        rows = _render_json_spectrum(t) if args.spectrum else ()
        yield from itertools.chain([head], rows, ["\n}\n"])
        return
    lines = [
        f"d: {t.d}",
        f"m: {t.m}",
        f"N: {t.N}",
        f"b: {result.b}",
        f"B_links: {result.links}",
        "argmin_r: " + ",".join(shown) + (f" (+{extra} more)" if extra > 0 else ""),
    ]
    if args.spectrum:   # the `r cut alpha` table, from one pass over the cuts
        lines.append("r cut alpha")
        rows = gf2.text_rows(t.d, ((cut, _alphas(t, cut)) for cut in topology.cut_chunks(t)),
                             [(0, t.m), (-t.m, t.m)], sep=" ")
    else:
        rows = ()
    yield from itertools.chain(["\n".join(lines) + "\n"], rows)


def _alphas(t: topology.CayleyTopology, cuts: np.ndarray) -> np.ndarray:
    """The eigenvalues m - 2 * cut, widened first: cut_chunks' chunks are
    unsigned and as narrow as m allows, so they would wrap."""
    return t.m - 2 * cuts.astype(np.int64, copy=False)


def _render_json_spectrum(t: topology.CayleyTopology) -> Iterator[str]:
    """Yield the "cuts" and "alphas" members laid out as json.dumps(...,
    indent=2) lays out the last members of an object, one string per chunk,
    from one pass over topology.cut_chunks(t) per member."""
    for key, column in (("cuts", lambda c: c), ("alphas", lambda c: _alphas(t, c))):
        sep = f',\n  "{key}": [\n    '
        for block in topology.cut_chunks(t):
            yield sep + ",\n    ".join(map(str, column(block).tolist()))
            sep = ",\n    "
        yield "\n  ]"


def _cmd_mindist(args) -> int:
    g = codes.parse_generator(_read(args.genfile))
    with _output(args.output) as f:
        delta = codes.min_distance(g)
        if args.format == "json":
            f.write(json.dumps({"n": g.n, "k": g.k, "min_distance": delta}, indent=2) + "\n")
        else:
            f.write(f"n: {g.n}\nk: {g.k}\nmin_distance: {delta}\n")
    return 0


def _cmd_convert(args) -> int:
    if args.to_hops:
        g = codes.parse_generator(_read(args.infile))
        t = construct.code_to_network(g)
        text = topology.emit_hopset(t)
    else:
        t = topology.parse_hopset(_read(args.infile))
        g = construct.network_to_code(t)
        text = codes.emit_generator(g)
    with _output(args.output) as f:
        f.write(text)
    return 0


def _cmd_optimize(args) -> int:
    if not 1 <= args.d <= topology.HARD_MAX_D:   # before either method builds a word
        raise ValueError(f"dimension must be in 1..{topology.HARD_MAX_D}, got {args.d}")
    if args.method == "brute":
        for name in ("start", "swap_width", "max_rounds"):
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} applies only to --method greedy")
        search = functools.partial(optimize.brute_force_search, args.d, args.m)
    else:
        if args.start:
            start = topology.parse_hopset(_read(args.start))
            if (start.d, start.m) != (args.d, args.m):
                raise ValueError(
                    f"start hop set is (d={start.d}, m={start.m}),"
                    f" expected (d={args.d}, m={args.m})"
                )
        else:
            topology.check_cap(args.d)   # before any word is built
            if args.m < args.d:
                raise ValueError(f"m={args.m} must be at least d={args.d}")
            if args.m - args.d > (1 << args.d) - 1 - args.d:
                raise ValueError(f"no valid start with m={args.m} at d={args.d}")
            # the basis, then the first m - d words that are not powers of two
            extras = (w for w in itertools.count(3) if w & (w - 1))
            basis = [1 << i for i in range(args.d)]
            start = topology.build(args.d, basis + list(itertools.islice(extras, args.m - args.d)))
        given = {name: getattr(args, name) for name in ("swap_width", "max_rounds")}
        search = functools.partial(   # unset flags keep greedy_improve's defaults
            optimize.greedy_improve, start,
            **{name: value for name, value in given.items() if value is not None}
        )
    with _output(args.output) as f:   # the hop set goes to -o alone, the report to stdout
        report = search()
        if args.output:
            f.write(topology.emit_hopset(report.best))
    hops_text = ",".join(gf2.word_to_text(h, report.best.d) for h in report.best.hops)
    lines = [
        f"method: {report.method}",
        f"d: {report.best.d}",
        f"m: {report.best.m}",
        f"best_b: {report.best_b}",
        f"evaluated: {report.evaluated}",
        f"rounds: {report.rounds}",
        f"hops: {hops_text}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_routes(args) -> int:
    t = topology.parse_hopset(_read(args.hopfile))
    topology.check_cap(t.d)   # before the N-byte distance vector
    src = gf2.word_from_text(args.src) if args.src else 0
    dst = gf2.word_from_text(args.dest)
    if not 0 <= src < t.N:
        raise ValueError(f"source out of range for d={t.d}")
    if not 0 <= dst < t.N:
        raise ValueError(f"destination out of range for d={t.d}")
    if src == dst:
        raise ValueError("source equals destination")
    yrel = src ^ dst
    with _output(args.output) as f:
        if args.diversity is not None:
            paths = routing.disjoint_paths(t, yrel, args.diversity)
            kind = "disjoint"
        else:
            paths = routing.shortest_paths(t, yrel)
            kind = "shortest"
        lines = [
            f"yrel: {gf2.word_to_text(yrel, t.d)}",
            f"kind: {kind}",
            f"count: {len(paths)}",
        ]
        lines += [",".join(str(p) for p in path) for path in paths]
        f.write("\n".join(lines) + "\n")
    return 0


def _cmd_ftable(args) -> int:
    t = topology.parse_hopset(_read(args.hopfile))
    # before the N-byte distance vector; forwarding_table caps q * N itself
    topology.check_cap(t.d)
    with _output(args.output) as f:
        f.writelines(routing.forwarding_table(t, args.diversity).csv_blocks())
    return 0


def _cmd_cluster(args) -> int:
    t = topology.parse_hopset(_read(args.hopfile))
    _check_cap(t.d, args.allow_large)
    with _output(args.output) as f:
        clustering = topology.cluster(t, args.levels)
        # the labels in runs of n nodes: x = lo + y, y < n, has label(lo) XOR label(y)
        n = min(gf2.TEXT_ROWS, t.N)
        first = clustering.labels(0, n)
        labels = ((first ^ clustering.label(lo),) for lo in range(0, t.N, n))
        rows = gf2.text_rows(t.d, labels, [(0, (1 << args.levels) - 1)])
        f.writelines(itertools.chain(["node,label\n"], rows))
    return 0


def _parse_lh_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'd,m,delta', got {text!r}")
    try:
        d, m, delta = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"expected integers in 'd,m,delta', got {text!r}") from None
    return d, m, delta


def _cmd_compare(args) -> int:
    if args.lh_code:
        lh = codes.parse_generator(_read(args.lh_code))
    elif args.lh:
        lh = _parse_lh_triple(args.lh)
    else:
        raise ValueError("one of --lh or --lh-code is required")
    render = {
        "text": cmp_mod.render_text,
        "csv": cmp_mod.render_csv,
        "json": cmp_mod.render_json,
    }[args.format]
    with _output(args.output) as f:
        f.write(render(cmp_mod.compare(args.ports, args.radix, lh, ft_levels=args.ft_levels)))
    return 0


# Above the default cap verify refuses, before any work, a check estimated
# to take more than _VERIFY_BUDGET_S: _MOVE_S per bitmap word that
# crossing_links moves (_VERIFY_PARTITIONS * m * N/64) plus _BUTTERFLY_S per
# butterfly of walsh_chunks' transforms (N * min(d, 16)), as measured at
# d = 22..24, m = 64 on a 2-vCPU VM when each hop permuted its own moved
# words.  A moved word now costs about 4 ns, so the estimate is high
# (d = 24: 5.5-5.9 s in all).
_VERIFY_PARTITIONS = 64
_VERIFY_BUDGET_S = 60
_MOVE_S = 2.5e-8
_BUTTERFLY_S = 3e-9


def _check_verify_budget(t: topology.CayleyTopology) -> None:
    moved = _VERIFY_PARTITIONS * t.m * (t.N >> 6)
    butterflies = t.N * min(t.d, gf2._TABLE_BITS)
    seconds = moved * _MOVE_S + butterflies * _BUTTERFLY_S
    if t.d > topology.DEFAULT_MAX_D and seconds > _VERIFY_BUDGET_S:
        raise ValueError(
            f"verify at d={t.d}, m={t.m} moves {moved} bitmap words and runs {butterflies}"
            f" transform butterflies, about {seconds:.0f} s; the budget above"
            f" d={topology.DEFAULT_MAX_D} is {_VERIFY_BUDGET_S} s"
        )


def _cmd_verify(args) -> int:
    out = sys.stdout
    failed = False
    if args.edge_list:
        edges, n = topology.parse_edge_list(_read(args.edge_list))
        links = topology.bisection_bruteforce(edges, n)
        out.write(f"bruteforce_bisection_links: {links}\n")
        return 0
    t = topology.parse_hopset(_read(args.hopfile))
    _check_cap(t.d, args.allow_large)
    _check_verify_budget(t)
    agree = True

    def oracle() -> Iterator[np.ndarray]:   # one pair of chunks at a time, never N entries
        nonlocal agree
        # a stream that ends before the other pairs None with a chunk: they disagree
        pairs = itertools.zip_longest(topology.cut_chunks(t), topology.walsh_chunks(t))
        for scan, walsh in pairs:
            agree &= scan is not None and walsh is not None and np.array_equal(scan, walsh)
            if walsh is not None:
                yield walsh

    fwht = topology.reduce_cuts(oracle())
    out.write(f"scan_vs_fwht: {'OK' if agree else 'FAIL'} (b={fwht.b}, B={fwht.links} links)\n")
    failed |= not agree

    rng = random.Random(args.seed)
    sample = sorted(rng.sample(range(1, t.N), min(_VERIFY_PARTITIONS, t.N - 1)))
    differ = sum(
        links != topology.cut_walsh(t, r) * (t.N // 2)
        for r, links in zip(sample, topology.crossing_links(t, sample))
    )
    if differ:
        out.write(f"cut_correspondence: FAIL ({differ} of {len(sample)} partitions differ)\n")
    else:
        out.write(f"cut_correspondence: OK ({len(sample)} partitions checked)\n")
    failed |= bool(differ)

    if t.N <= 20:
        brute = topology.bisection_bruteforce(list(t.edges()), t.N)
        ok_brute = brute == fwht.links
        out.write(
            f"bruteforce_oracle: {'OK' if ok_brute else 'FAIL'} "
            f"(equipartition minimum {brute} links)\n"
        )
        failed |= not ok_brute
    else:
        out.write("bruteforce_oracle: skipped (N > 20)\n")
    return 1 if failed else 0


def _allow_large_args(p: _Parser, what: str = "") -> None:
    p.add_argument("--allow-large", action="store_true",
                   help=f"lift the d <= {topology.DEFAULT_MAX_D} full-spectrum cap{what}")


def _output_args(p: _Parser) -> None:
    p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")


def _bisect_args(p: _Parser) -> None:
    p.add_argument("hopfile")
    # scan is the one method; the flag stays so that `--method scan` keeps working
    p.add_argument("--method", choices=["scan"], default="scan")
    p.add_argument("--spectrum", action="store_true", help="print all cuts and eigenvalues")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _allow_large_args(p, " on --spectrum")
    _output_args(p)


def _mindist_args(p: _Parser) -> None:
    p.add_argument("genfile")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output", default=None)


def _convert_args(p: _Parser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-hops", action="store_true", help="generator matrix -> hop set")
    group.add_argument("--to-code", action="store_true", help="hop set -> generator matrix")
    p.add_argument("infile")
    p.add_argument("-o", "--output", default=None)


def _optimize_args(p: _Parser) -> None:
    p.add_argument("-d", type=int, required=True, help="dimension (log2 of node count)")
    p.add_argument("-m", type=int, required=True, help="number of hops")
    p.add_argument("--method", choices=["brute", "greedy"], default="brute")
    p.add_argument("--start", default=None, help="hop-set file to start greedy from")
    p.add_argument("--swap-width", type=int, choices=[1, 2], default=None,
                   help="greedy only (default 1)")
    p.add_argument("--max-rounds", type=int, default=None, help="greedy only (default 100)")
    p.add_argument("-o", "--output", default=None, help="write best hop set to this file")


def _routes_args(p: _Parser) -> None:
    p.add_argument("hopfile")
    p.add_argument("--dest", required=True, help="destination as a binary node label")
    p.add_argument("--src", default=None, help="source node label (default 0)")
    p.add_argument("--diversity", type=int, default=None,
                   help="return this many edge-disjoint paths instead of all shortest")
    _output_args(p)


def _ftable_args(p: _Parser) -> None:
    p.add_argument("hopfile")
    p.add_argument("--diversity", type=int, required=True, help="selectors per destination")
    _output_args(p)


def _cluster_args(p: _Parser) -> None:
    p.add_argument("hopfile")
    p.add_argument("--levels", type=int, required=True)
    _allow_large_args(p)
    _output_args(p)


def _compare_args(p: _Parser) -> None:
    p.add_argument("--ports", type=float, required=True)
    p.add_argument("--radix", type=float, required=True)
    p.add_argument("--lh", default=None, help="long-hop code as 'd,m,delta'")
    p.add_argument("--lh-code", default=None, help="long-hop generator-matrix file")
    p.add_argument("--ft-levels", type=int, default=4)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("-o", "--output", default=None)


def _verify_args(p: _Parser) -> None:
    p.add_argument("hopfile", nargs="?", default=None)
    p.add_argument("--edge-list", default=None,
                   help="run the equipartition oracle on an edge-list file instead")
    _allow_large_args(p)


# name -> (help, the function adding its arguments, the function running it),
# in the order `longhop -h` lists them
_COMMANDS: dict[str, tuple[str, Callable[[_Parser], None], Callable[..., int]]] = {
    "bisect": ("bisection of a hop-set file", _bisect_args, _cmd_bisect),
    "mindist": ("minimum distance of a generator-matrix file", _mindist_args, _cmd_mindist),
    "convert": ("translate between code and hop-set files", _convert_args, _cmd_convert),
    "optimize": ("search for a bisection-maximizing hop set", _optimize_args, _cmd_optimize),
    "routes": ("shortest or edge-disjoint paths", _routes_args, _cmd_routes),
    "ftable": ("forwarding table as CSV", _ftable_args, _cmd_ftable),
    "cluster": ("recursive minimum-cut clustering labels", _cluster_args, _cmd_cluster),
    "compare": ("topology-family cost comparison table", _compare_args, _cmd_compare),
    "verify": ("cross-check bisection algorithms on an instance", _verify_args, _cmd_verify),
}


def _command_name(argv: list[str]) -> str | None:
    """The subcommand argv names after any `--seed N` or `--seed=N`, or None
    where telling it needs every subparser: help, any other top-level
    argument, or an unknown or missing command."""
    args = iter(argv)
    for arg in args:
        if arg == "--seed":
            next(args, None)
        elif not arg.startswith("--seed="):
            return arg if arg in _COMMANDS else None
    return None


def _build_parser(command: str | None = None) -> _Parser:
    """The parser with the subparser of `command` alone, or of every
    subcommand when `command` is None."""
    parser = _Parser(prog="longhop", description=__doc__)
    parser.add_argument("--seed", type=int, default=1, help="seed for randomized checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_args, func) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=summary)
            add_args(p)
            p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(_command_name(argv))
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and not args.hopfile and not args.edge_list:
            raise ValueError("verify needs a hop-set file or --edge-list")
        if args.command == "verify" and args.hopfile and args.edge_list:
            raise ValueError("verify takes a hop-set file or --edge-list, not both")
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (routing.Unroutable, cmp_mod.Infeasible) as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
