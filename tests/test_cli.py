import argparse
import contextlib
import io
import itertools
import json
import operator
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

import longhop
from longhop import cli, compare, gf2, optimize, routing, topology
from longhop.cli import main

from conftest import DATA, random_topology


@pytest.fixture()
def folded3_file(tmp_path):
    path = tmp_path / "folded3.hops"
    path.write_text("d=3\n001\n010\n100\n111\n", encoding="utf-8")
    return str(path)


def parse_outcome(parser, argv):
    """What parsing argv gives: the Namespace (its repr, as nan != nan), the
    usage error, or the exit status and standard output of help."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return repr(parser.parse_args(argv))
    except cli._UsageError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


def run(capsys, argv):
    # main builds only the named subcommand's parser; every argv parses as
    # with the parser of all subcommands
    narrow = cli._build_parser(cli._command_name(argv))
    assert parse_outcome(narrow, argv) == parse_outcome(cli._build_parser(), argv), argv
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBisect:
    def test_folded_cube(self, capsys, folded3_file):
        code, out, _ = run(capsys, ["bisect", folded3_file])
        assert code == 0
        assert "b: 2" in out and "B_links: 8" in out

    def test_json(self, capsys, folded3_file):
        code, out, _ = run(capsys, ["bisect", folded3_file, "--format", "json"])
        payload = json.loads(out)
        assert payload["b"] == 2 and payload["B_links"] == 8
        assert payload["argmin_count"] == 6

    def test_spectrum_lines(self, capsys, folded3_file):
        code, out, _ = run(capsys, ["bisect", folded3_file, "--spectrum"])
        assert "111 4 -4" in out

    def test_scan_method(self, capsys, folded3_file):
        code, out, _ = run(capsys, ["bisect", folded3_file, "--method", "scan"])
        assert code == 0 and "b: 2" in out

    @pytest.mark.parametrize("flags", [[], ["--format", "json"], ["--spectrum"],
                                       ["--format", "json", "--spectrum"]])
    def test_default_scan_matches_fwht(self, capsys, tmp_path, flags):
        # the whole output, against one built from the Walsh-Hadamard oracle
        t = topology.build(6, [1, 2, 4, 8, 16, 32, 7, 56, 21, 42])
        path = tmp_path / "h.hops"
        path.write_text(topology.emit_hopset(t), encoding="utf-8")
        cuts = topology.bisection_fwht(t).tolist()
        alphas = [t.m - 2 * cut for cut in cuts]
        b = min(cuts[1:])
        argmin = [gf2.word_to_text(r, 6) for r in range(1, 64) if cuts[r] == b]
        if "json" in flags:
            payload = {"d": 6, "m": t.m, "N": 64, "b": b, "B_links": b * 32,
                       "argmin_r": argmin, "argmin_count": len(argmin)}
            if "--spectrum" in flags:
                payload.update(cuts=cuts, alphas=alphas)
            expected = json.dumps(payload, indent=2) + "\n"
        else:
            expected = (f"d: 6\nm: {t.m}\nN: 64\nb: {b}\nB_links: {b * 32}\n"
                        f"argmin_r: {','.join(argmin)}\n")
            if "--spectrum" in flags:
                expected += "r cut alpha\n" + "".join(
                    f"{r:06b} {cut} {alpha}\n" for r, (cut, alpha) in enumerate(zip(cuts, alphas)))
        assert run(capsys, ["bisect", str(path), *flags]) == (0, expected, "")

    def test_fwht_method_refused(self, capsys, folded3_file):
        code, out, err = run(capsys, ["bisect", folded3_file, "--method", "fwht"])
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --method: invalid choice: 'fwht'")

    def test_default_method_is_scan(self, capsys, folded3_file, monkeypatch):
        def oracle_only(t, **kwargs):
            raise AssertionError("bisect ran the fwht oracle by default")

        monkeypatch.setattr(topology, "bisection_fwht", oracle_only)
        monkeypatch.setattr(topology, "walsh_chunks", oracle_only)
        code, out, _ = run(capsys, ["bisect", folded3_file])
        assert code == 0 and "b: 2" in out

    def test_byte_identical_runs(self, capsys, folded3_file):
        _, out1, _ = run(capsys, ["bisect", folded3_file, "--spectrum"])
        _, out2, _ = run(capsys, ["bisect", folded3_file, "--spectrum"])
        assert out1 == out2

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, ["bisect", "/nonexistent.hops"])
        assert code == 1 and "error" in err


class TestMindist:
    def test_hamming(self, capsys):
        code, out, _ = run(capsys, ["mindist", str(DATA / "hamming_7_4.txt")])
        assert code == 0
        assert "min_distance: 3" in out and "n: 7" in out and "k: 4" in out

    def test_limit_refusal(self, capsys, tmp_path, monkeypatch):
        def no_work(*args):
            raise AssertionError("the codeword weights were enumerated")

        monkeypatch.setattr(gf2, "codeword_weights", no_work)
        path = tmp_path / "k33.txt"
        path.write_text("".join("0" * i + "1" + "0" * (32 - i) + "\n" for i in range(33)))
        code, out, err = run(capsys, ["mindist", str(path)])
        assert (code, out) == (1, "")
        assert err == "error: k=33 exceeds the exhaustive-search cap 32; refusing\n"

    @pytest.mark.parametrize("k,code", [(33, 1), (32, 0)])
    def test_limit_capped_at_hard_max_d(self, capsys, tmp_path, monkeypatch, k, code):
        # the cap sits at HARD_MAX_D = 32: k=32 reaches the enumeration (cut to its
        # first chunk, which holds a unit vector's weight 1), k=33 is refused before it
        enumerated, whole = [], gf2.codeword_weights

        def first_chunk(rows, n):
            enumerated.append(len(rows))
            return itertools.islice(whole(rows, n), 1)

        monkeypatch.setattr(gf2, "codeword_weights", first_chunk)
        path = tmp_path / f"k{k}.txt"
        path.write_text("".join("0" * i + "1" + "0" * (k - 1 - i) + "\n" for i in range(k)))
        got, out, err = run(capsys, ["mindist", str(path)])
        assert got == code
        assert enumerated == ([32] if code == 0 else [])
        assert ("min_distance: 1" in out and "k: 32" in out) == (code == 0)
        assert ("exceeds the exhaustive-search cap 32" in err) == (code == 1)


class TestConvert:
    def test_code_to_hops_and_back(self, capsys, tmp_path):
        hops = tmp_path / "out.hops"
        code, _, _ = run(
            capsys,
            ["convert", "--to-hops", str(DATA / "hamming_7_4.txt"), "-o", str(hops)],
        )
        assert code == 0
        code, out, _ = run(capsys, ["convert", "--to-code", str(hops)])
        assert code == 0
        assert out.splitlines() == ["1101000", "0110100", "1110010", "1010001"]

    def test_malformed_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.hops"
        bad.write_text("d=3\n001\n01x\n", encoding="utf-8")
        code, _, err = run(capsys, ["convert", "--to-code", str(bad)])
        assert code == 1 and "line 3" in err


class TestOptimize:
    def test_brute(self, capsys, tmp_path):
        out_file = tmp_path / "best.hops"
        code, out, _ = run(
            capsys,
            ["optimize", "-d", "3", "-m", "4", "--method", "brute", "-o", str(out_file)],
        )
        assert code == 0
        assert "best_b: 2" in out
        assert out_file.read_text().startswith("d=3\n")

    def test_greedy_from_file(self, capsys, tmp_path):
        start = tmp_path / "start.hops"
        start.write_text("d=3\n001\n010\n100\n011\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            ["optimize", "-d", "3", "-m", "4", "--method", "greedy", "--start", str(start)],
        )
        assert code == 0
        assert "best_b: 2" in out and "rounds: 1" in out

    @pytest.mark.parametrize("flag,value", [
        ("--start", "start.hops"), ("--swap-width", "1"), ("--max-rounds", "-1"),
        ("--max-rounds", "0"),
    ])
    def test_brute_refuses_greedy_flags(self, capsys, flag, value):
        code, out, err = run(capsys, ["optimize", "-d", "3", "-m", "4", flag, value])
        assert code == 1 and out == ""
        assert flag in err

    def test_greedy_defaults(self, capsys):
        base = ["optimize", "-d", "4", "-m", "6", "--method", "greedy"]
        code, out, _ = run(capsys, base)
        assert code == 0
        assert run(capsys, base + ["--swap-width", "1", "--max-rounds", "100"]) == (0, out, "")

    def test_greedy_default_start(self, capsys):
        # the basis, then the first m - d words that are not powers of two
        code, out, _ = run(
            capsys, ["optimize", "-d", "4", "-m", "9", "--method", "greedy", "--max-rounds", "0"]
        )
        assert code == 0
        assert "hops: 0001,0010,0100,1000,0011,0101,0110,0111,1001" in out

    @pytest.mark.parametrize("d,m,message", [
        ("3", "8", "no valid start with m=8 at d=3"),
        ("4", "2", "m=2 must be at least d=4"),
        ("30", "34", "exceeds the full-spectrum cap 24"),
    ], ids=["too-many-hops", "m-below-d", "above-cap"])
    def test_greedy_default_start_refused(self, capsys, d, m, message):
        began = time.perf_counter()
        code, out, err = run(capsys, ["optimize", "-d", d, "-m", m, "--method", "greedy"])
        assert time.perf_counter() - began < 2   # refused before any word list is built
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize("method", ["brute", "greedy"])
    @pytest.mark.parametrize("d", ["-1", "0", "33"])
    def test_dimension_out_of_range_refused(self, capsys, method, d):
        code, out, err = run(capsys, ["optimize", "-d", d, "-m", "1", "--method", method])
        assert (code, out) == (1, "")
        assert err == f"error: dimension must be in 1..32, got {d}\n"

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, ["optimize", "-d", "6", "-m", "7"])
        assert code == 1 and "budget" in err

    def test_negative_max_rounds(self, capsys):
        code, out, err = run(
            capsys,
            ["optimize", "-d", "3", "-m", "4", "--method", "greedy", "--max-rounds", "-1"],
        )
        assert code == 1 and out == ""
        assert "max_rounds must be non-negative" in err


class TestRoutes:
    def test_shortest(self, capsys, folded3_file):
        code, out, _ = run(capsys, ["routes", folded3_file, "--dest", "110"])
        assert code == 0
        assert "count: 4" in out and "1,4" in out

    def test_disjoint(self, capsys, folded3_file):
        code, out, _ = run(
            capsys, ["routes", folded3_file, "--dest", "110", "--diversity", "2"]
        )
        assert code == 0 and "kind: disjoint" in out

    def test_relative_addressing(self, capsys, folded3_file):
        _, out_rel, _ = run(
            capsys, ["routes", folded3_file, "--src", "010", "--dest", "100"]
        )
        _, out_abs, _ = run(capsys, ["routes", folded3_file, "--dest", "110"])
        assert out_rel == out_abs

    def test_infeasible_diversity_exit_code(self, capsys, tmp_path):
        cube = tmp_path / "cube.hops"
        cube.write_text("d=3\n001\n010\n100\n", encoding="utf-8")
        code, _, err = run(
            capsys, ["routes", str(cube), "--dest", "001", "--diversity", "5"]
        )
        assert code == 1  # q > m is an input error
        code, _, err = run(capsys, ["routes", str(cube), "--dest", "000"])
        assert code == 1

    @pytest.mark.parametrize("command", [["routes", "--dest", "011"], ["ftable"]])
    @pytest.mark.parametrize("q", ["0", "-2"])
    def test_nonpositive_diversity_refused(self, capsys, folded3_file, command, q):
        code, out, err = run(capsys, [command[0], folded3_file, *command[1:], "--diversity", q])
        assert code == 1 and out == ""
        assert f"diversity must be in 1..4, got {q}" in err

    @pytest.mark.parametrize("flags", [[], ["--diversity", "4"]], ids=["shortest", "disjoint"])
    def test_refused_above_cap(self, capsys, tmp_path, monkeypatch, flags):
        path = tmp_path / "d25.hops"
        path.write_text(topology.emit_hopset(topology.build(25, [1 << i for i in range(25)])))

        def no_search(t):
            raise AssertionError("the BFS ran")

        monkeypatch.setattr(topology, "hop_distances", no_search)
        monkeypatch.setattr(routing, "hop_distances", no_search)
        code, out, err = run(capsys, ["routes", str(path), "--dest", "1" * 25, *flags])
        assert code == 1 and out == ""
        assert "d=25 exceeds the full-spectrum cap 24" in err

    def test_source_out_of_range(self, capsys, folded3_file):
        code, out, err = run(capsys, ["routes", folded3_file, "--dest", "011", "--src", "1111"])
        assert code == 1 and out == ""
        assert "source out of range for d=3" in err


class TestFtableClusterVerify:
    def test_ftable_csv(self, capsys, folded3_file):
        code, out, _ = run(capsys, ["ftable", folded3_file, "--diversity", "2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "selector,destination,egress_port"
        assert len(lines) == 1 + 7 * 2

    @pytest.mark.parametrize("d,q", [(25, 1), (24, 5), (22, 17)])
    def test_ftable_refused_above_budget(self, capsys, tmp_path, monkeypatch, d, q):
        # d = 25 by the dimension cap of routes, the others by q * N > 2^26
        path = tmp_path / "big.hops"
        path.write_text(topology.emit_hopset(topology.build(d, [1 << i for i in range(d)])))

        def no_bfs(t):
            raise AssertionError("the BFS ran")

        monkeypatch.setattr(topology, "hop_distances", no_bfs)
        monkeypatch.setattr(routing, "hop_distances", no_bfs)
        began = time.perf_counter()
        code, out, err = run(capsys, ["ftable", str(path), "--diversity", str(q)])
        assert time.perf_counter() - began < 0.5
        assert code == 1 and out == ""
        if d > topology.DEFAULT_MAX_D:
            assert err == f"error: d={d} exceeds the full-spectrum cap 24\n"
        else:
            assert f"d={d}, q={q} needs a {q << d}-byte port array" in err
            assert f"the cap is {routing.MAX_TABLE_ENTRIES} entries" in err

    def test_ftable_diversity_1_at_d19(self, capsys, tmp_path):
        # the header and one row for each of the 2^19 - 1 destinations
        path = tmp_path / "d19.hops"
        path.write_text(topology.emit_hopset(topology.build(19, [1 << i for i in range(19)])))
        csv = tmp_path / "d19.csv"
        code, out, err = run(capsys, ["ftable", str(path), "--diversity", "1", "-o", str(csv)])
        assert code == 0 and out == err == ""
        with open(csv, "rb") as f:
            assert sum(1 for _ in f) == 1 << 19

    def test_cluster(self, capsys, folded3_file):
        code, out, _ = run(capsys, ["cluster", folded3_file, "--levels", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "node,label"
        labels = [line.split(",")[1] for line in lines[1:]]
        assert labels.count("0") == 4 and labels.count("1") == 4

    def test_spectrum_and_cluster_render_words(self, capsys, tmp_path):
        t = topology.build(4, [1, 2, 4, 8, 7, 11])
        path = tmp_path / "h.hops"
        path.write_text(topology.emit_hopset(t), encoding="utf-8")
        _, out, _ = run(capsys, ["bisect", str(path), "--spectrum"])
        cuts = topology.bisection_fwht(t).tolist()
        rows = [f"{gf2.word_to_text(r, 4)} {cuts[r]} {t.m - 2 * cuts[r]}" for r in range(16)]
        assert out.splitlines()[-17:] == ["r cut alpha", *rows]
        _, out, _ = run(capsys, ["cluster", str(path), "--levels", "2"])
        labels = topology.cluster(t, 2).labels()
        rows = [f"{gf2.word_to_text(x, 4)},{int(labels[x])}" for x in range(16)]
        assert out.splitlines() == ["node,label", *rows]

    @pytest.mark.parametrize("levels", [0, 3, 4, 6])
    def test_cluster_rows_across_render_blocks(self, capsys, tmp_path, monkeypatch, levels):
        # labels of one and two digits, rows split over blocks of 4
        monkeypatch.setattr(gf2, "TEXT_ROWS", 4)
        t = topology.build(6, [1, 2, 4, 8, 16, 32, 7, 56, 21])
        path = tmp_path / "h.hops"
        path.write_text(topology.emit_hopset(t), encoding="utf-8")
        code, out, _ = run(capsys, ["cluster", str(path), "--levels", str(levels)])
        labels = topology.cluster(t, levels).labels().tolist()
        assert code == 0
        assert out == "node,label\n" + "".join(f"{x:06b},{labels[x]}\n" for x in range(64))

    def test_cluster_rows_match_labels(self, capsys, tmp_path, monkeypatch):
        # every d = 1..18 and every level 0..d, so labels of one to six digits
        # occur, on stdout and in a file; blocks of 4 rows up to d = 8, then
        # 64 blocks, so that rows always cross blocks
        rng = random.Random(14)
        path, out_file = tmp_path / "h.hops", tmp_path / "clusters.csv"
        for d in range(1, 19):
            monkeypatch.setattr(gf2, "TEXT_ROWS", 1 << max(2, d - 6))
            hops = [1 << i for i in range(d)]
            hops += rng.sample(sorted(set(range(1, 1 << d)) - set(hops)), min(d, (1 << d) - 1 - d))
            t = topology.build(d, hops)
            path.write_text(topology.emit_hopset(t), encoding="utf-8")
            nodes = [f"{x:0{d}b}" for x in range(t.N)]
            for levels in range(d + 1):
                labels = topology.cluster(t, levels).labels().tolist()
                tails = [f",{label}\n" for label in range(1 << levels)]   # f"{x:0{d}b},{label}\n"
                expected = "node,label\n" + "".join(
                    map(operator.add, nodes, map(tails.__getitem__, labels)))
                assert run(capsys, ["cluster", str(path), "--levels", str(levels)]) == (
                    0, expected, ""), (d, levels)
                argv = ["cluster", str(path), "--levels", str(levels), "-o", str(out_file)]
                assert run(capsys, argv) == (0, "", ""), (d, levels)
                assert out_file.read_text(encoding="ascii") == expected, (d, levels)

    def test_spectrum_rows_across_render_blocks(self, capsys, tmp_path, monkeypatch):
        t = topology.build(6, [1, 2, 4, 8, 16, 32, 7, 56, 21])
        path = tmp_path / "h.hops"
        path.write_text(topology.emit_hopset(t), encoding="utf-8")
        cuts = topology.bisection_fwht(t).tolist()
        # cut chunks shorter than, as long as and longer than a row table
        for table_bits, rows in ((2, 16), (4, 4), (5, 2)):
            monkeypatch.setattr(gf2, "_TABLE_BITS", table_bits)
            monkeypatch.setattr(gf2, "TEXT_ROWS", rows)
            code, out, _ = run(capsys, ["bisect", str(path), "--spectrum"])
            assert code == 0
            assert out.endswith("r cut alpha\n" + "".join(
                f"{r:06b} {cuts[r]} {t.m - 2 * cuts[r]}\n" for r in range(64))), table_bits

    @pytest.mark.parametrize("d", range(1, 17))
    def test_spectrum_rows_match_cuts(self, capsys, tmp_path, monkeypatch, d):
        # m up to 120, so that cuts and alphas of one to three digits and
        # negative alphas occur, on stdout and in a file; row tables of 4
        # rows up to d = 8, then 64 tables per spectrum
        rng = random.Random(d)
        path, out_file = tmp_path / "h.hops", tmp_path / "spectrum.txt"
        monkeypatch.setattr(gf2, "TEXT_ROWS", 1 << max(2, d - 6))
        for m in sorted({d, min(d + 5, (1 << d) - 1), min(120, (1 << d) - 1)}):
            hops = [1 << i for i in range(d)]
            pool = sorted(set(range(1, 1 << d)) - set(hops)) if d < 12 else None
            while len(hops) < m:
                w = rng.getrandbits(d) if pool is None else rng.choice(pool)
                if w not in hops and w & (w - 1):
                    hops.append(w)
            t = topology.build(d, hops)
            path.write_text(topology.emit_hopset(t), encoding="utf-8")
            cuts = topology.bisection_fwht(t).tolist()
            expected = "r cut alpha\n" + "".join(
                f"{r:0{d}b} {cut} {m - 2 * cut}\n" for r, cut in enumerate(cuts))
            code, out, err = run(capsys, ["bisect", str(path), "--spectrum"])
            assert (code, err) == (0, "") and out.endswith(expected), (d, m)
            argv = ["bisect", str(path), "--spectrum", "-o", str(out_file)]
            assert run(capsys, argv) == (0, "", ""), (d, m)
            assert out_file.read_text(encoding="ascii") == out, (d, m)

    @pytest.mark.parametrize("method", ["scan"])   # the one method, named as perfbench names it
    @pytest.mark.parametrize("m", [254, 300])
    def test_spectrum_negative_alphas(self, capsys, tmp_path, m, method):
        # cuts of 128 and more and alphas below 0, from uint8 (m = 254) and
        # uint16 (m = 300) engine chunks, in text and in JSON
        t = random_topology(random.Random(8), 9, m)
        path = tmp_path / "h.hops"
        path.write_text(topology.emit_hopset(t), encoding="utf-8")
        cuts = [topology.cut_walsh(t, r) for r in range(t.N)]
        alphas = [m - 2 * cut for cut in cuts]
        assert max(cuts) >= 128 and min(alphas) < 0
        argv = ["bisect", str(path), "--method", method, "--spectrum"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.split("r cut alpha\n")[1].splitlines() == [
            f"{r:09b} {cut} {alpha}" for r, (cut, alpha) in enumerate(zip(cuts, alphas))]
        code, out, _ = run(capsys, [*argv, "--format", "json"])
        payload = json.loads(out)
        assert code == 0
        assert (payload["cuts"], payload["alphas"]) == (cuts, alphas)

    def test_spectrum_file_streams_render_blocks(self, tmp_path):
        # the engine's chunks of 2**_TABLE_BITS words, the cut and alpha
        # chunks being rendered and a few row tables; never the whole table
        # or an N-entry array at once
        t = topology.build(18, [1 << i for i in range(18)] + [0x3FFFF, 0x15555, 0x2AAAA, 0x0F0F0])
        path, out = tmp_path / "h.hops", tmp_path / "spectrum.txt"
        path.write_text(topology.emit_hopset(t), encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(["bisect", str(path), "--spectrum", "-o", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        rows = out.read_text(encoding="ascii").split("r cut alpha\n")[1]
        assert rows.count("\n") == t.N
        assert peak < 7 * (8 << gf2._TABLE_BITS) + 6 * gf2.TEXT_ROWS * (len(rows) // t.N)

    @pytest.mark.parametrize("method", ["scan"])   # the one method, named as perfbench names it
    def test_json_spectrum_across_render_blocks(self, capsys, tmp_path, monkeypatch, method):
        monkeypatch.setattr(gf2, "_TABLE_BITS", 2)   # 16 chunks of 4 entries
        t = topology.build(6, [1, 2, 4, 8, 16, 32, 7, 56, 21])
        path = tmp_path / "h.hops"
        path.write_text(topology.emit_hopset(t), encoding="utf-8")
        code, out, _ = run(
            capsys, ["bisect", str(path), "--method", method, "--format", "json", "--spectrum"])
        cuts = topology.bisection_fwht(t).tolist()
        b = min(cuts[1:])
        argmin = [r for r in range(1, 64) if cuts[r] == b]
        payload = {
            "d": 6, "m": t.m, "N": 64, "b": b, "B_links": b * 32,
            "argmin_r": [gf2.word_to_text(r, 6) for r in argmin],
            "argmin_count": len(argmin),
            "cuts": cuts, "alphas": [t.m - 2 * cut for cut in cuts],
        }
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_json_spectrum_file_streams_render_blocks(self, tmp_path):
        # the engine's chunks and the entries of one chunk at about 80 bytes
        # each (a str object, its list slots, its joined text); never the
        # whole payload, a list of N entries or an N-entry array
        t = topology.build(18, [1 << i for i in range(18)] + [0x3FFFF, 0x15555, 0x2AAAA, 0x0F0F0])
        path, out = tmp_path / "h.hops", tmp_path / "spectrum.json"
        path.write_text(topology.emit_hopset(t), encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(["bisect", str(path), "--format", "json", "--spectrum", "-o", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        payload = json.loads(out.read_text(encoding="ascii"))
        assert len(payload["cuts"]) == len(payload["alphas"]) == t.N
        assert peak < 5 * (8 << gf2._TABLE_BITS) + (80 << gf2._TABLE_BITS)

    def test_cluster_file_streams_render_blocks(self, tmp_path):
        # the engine's chunks and a few row tables; never the whole CSV
        # or an N-entry array at once
        t = topology.build(18, [1 << i for i in range(18)] + [0x3FFFF, 0x15555, 0x2AAAA, 0x0F0F0])
        path, out = tmp_path / "h.hops", tmp_path / "clusters.csv"
        path.write_text(topology.emit_hopset(t), encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(["cluster", str(path), "--levels", "3", "-o", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        row = t.d + len(",7\n")
        assert out.stat().st_size == len("node,label\n") + t.N * row
        assert peak < 5 * (8 << gf2._TABLE_BITS) + 6 * gf2.TEXT_ROWS * row

    @pytest.mark.parametrize("argv,chunks", [
        (["bisect"], 5), (["bisect", "--format", "json"], 5), (["verify"], 10),
    ], ids=["bisect", "bisect-json", "verify"])
    def test_spectral_answers_hold_no_n_entry_array(self, tmp_path, argv, chunks):
        # at d = 20 an N-entry int64 array is 16 chunks of 2**_TABLE_BITS
        # words; bisect holds the engine's few chunks, verify one pair of the
        # engine's and the transform's plus the bitmaps of its cut check
        t = topology.build(20, [1 << i for i in range(20)] + [0xFFFFF, 0x55555, 0xAAAAA, 0x0F0F0])
        path = tmp_path / "h.hops"
        path.write_text(topology.emit_hopset(t), encoding="utf-8")
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = main([argv[0], str(path), *argv[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        b = topology.bisection_fwht(t)[1:].min()
        assert f"{b * (t.N // 2)}" in out.getvalue()
        assert peak < chunks * (8 << gf2._TABLE_BITS) < t.N * 8

    @pytest.mark.parametrize(
        "command", [["routes", "--dest", "111"], ["ftable", "--diversity", "2"], ["bisect"]]
    )
    def test_allow_large_refused_where_unused(self, capsys, folded3_file, command):
        code, _, err = run(capsys, [command[0], folded3_file, *command[1:], "--allow-large"])
        assert code == 1 and "--allow-large" in err

    def test_verify_ok(self, capsys, folded3_file):
        code, out, _ = run(capsys, ["verify", folded3_file])
        assert code == 0
        assert "scan_vs_fwht: OK" in out
        assert "cut_correspondence: OK" in out
        assert "bruteforce_oracle: OK" in out

    def test_verify_catches_wrong_cut(self, capsys, folded3_file, monkeypatch):
        cut_walsh = topology.cut_walsh
        monkeypatch.setattr(topology, "cut_walsh", lambda t, r: cut_walsh(t, r) + 1)
        code, out, _ = run(capsys, ["verify", folded3_file])
        assert code == 1
        assert "cut_correspondence: FAIL" in out

    @pytest.mark.parametrize("short", ["cut_chunks", "walsh_chunks"])
    def test_verify_fails_on_a_missing_chunk(self, capsys, folded3_file, monkeypatch, short):
        # the chunks both streams yield agree, but one stream ends a chunk early
        monkeypatch.setattr(gf2, "_TABLE_BITS", 1)   # 4 chunks of 2 entries
        chunks = getattr(topology, short)
        monkeypatch.setattr(topology, short, lambda t: list(chunks(t))[:-1])
        code, out, _ = run(capsys, ["verify", folded3_file])
        assert code == 1
        assert "scan_vs_fwht: FAIL" in out
        assert "cut_correspondence: OK" in out

    def test_verify_edge_list(self, capsys, tmp_path):
        edges = tmp_path / "k4.edges"
        edges.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
        code, out, _ = run(capsys, ["verify", "--edge-list", str(edges)])
        assert code == 0
        assert "bruteforce_bisection_links: 4" in out

    def test_verify_needs_input(self, capsys):
        code, _, err = run(capsys, ["verify"])
        assert code == 1

    @pytest.mark.parametrize("hopfile", ["folded3", "/nonexistent"])
    def test_verify_refuses_hop_file_with_edge_list(self, capsys, folded3_file, tmp_path, hopfile):
        edges = tmp_path / "square.txt"
        edges.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
        hopfile = folded3_file if hopfile == "folded3" else hopfile
        code, out, err = run(capsys, ["verify", hopfile, "--edge-list", str(edges)])
        assert (code, out) == (1, "")
        assert err == "error: verify takes a hop-set file or --edge-list, not both\n"

    def test_verify_over_budget_refused_before_the_work(self, capsys, monkeypatch, tmp_path):
        def no_work(*args):
            raise AssertionError("verify started a check")

        for name in ("crossing_links", "walsh_chunks", "cut_chunks"):
            monkeypatch.setattr(topology, name, no_work)
        d = 28
        t = topology.build(d, [1 << i for i in range(d)] + [(1 << d) - 1 - i for i in range(36)])
        path = tmp_path / "d28.hops"
        path.write_text(topology.emit_hopset(t), encoding="utf-8")
        code, out, err = run(capsys, ["verify", str(path), "--allow-large"])
        # 64 partitions x 64 hops x 2**22 words at 25 ns, 2**28 x 16 butterflies at 3 ns
        assert (code, out) == (1, "")
        assert err == ("error: verify at d=28, m=64 moves 17179869184 bitmap words and runs"
                       " 4294967296 transform butterflies, about 442 s; the budget above"
                       " d=24 is 60 s\n")

    @pytest.mark.parametrize("d,refused", [(24, False), (25, False), (26, False), (27, True)])
    def test_verify_budget_applies_above_the_cap(self, d, refused):
        # the d unit hops: 64 * d * 2**(d - 6) moved words; d = 27 is estimated at 97 s
        t = topology.build(d, [1 << i for i in range(d)])
        if refused:
            with pytest.raises(ValueError, match="the budget above d=24 is 60 s"):
                cli._check_verify_budget(t)
        else:
            cli._check_verify_budget(t)
        # at the cap and below nothing is refused, whatever the estimate
        big = topology.build(24, [1 << i for i in range(24)] + list(range(3, 3000, 2)))
        cli._check_verify_budget(big)


class TestCompareCommand:
    ARGS = ["compare", "--ports", "131072", "--radix", "64", "--lh", "13,48,16"]

    def test_text(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        assert "LH" in out and "400.000000" in out

    def test_csv_deterministic(self, capsys):
        _, out1, _ = run(capsys, self.ARGS + ["--format", "csv"])
        _, out2, _ = run(capsys, self.ARGS + ["--format", "csv"])
        assert out1 == out2

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--format", "json"])
        assert json.loads(out)["rows"][0]["switches"] == 8192.0

    def test_lh_code_file(self, capsys):
        code, out, _ = run(
            capsys,
            ["compare", "--ports", "131072", "--radix", "64",
             "--lh-code", str(DATA / "g48_13_16.txt")],
        )
        assert code == 0 and "2.913075" in out

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            ["compare", "--ports", "1e18", "--radix", "64", "--lh", "13,48,16"],
        )
        assert code == 2 and "infeasible" in err

    def test_missing_lh_is_input_error(self, capsys):
        code, _, err = run(capsys, ["compare", "--ports", "131072", "--radix", "64"])
        assert code == 1

    @pytest.mark.parametrize("flag", ["--ports", "--radix"])
    @pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
    def test_nonpositive_or_nonfinite_refused(self, capsys, flag, value):
        values = {"--ports": "131072", "--radix": "64", flag: value}
        code, out, err = run(capsys, ["compare", *(x for kv in values.items() for x in kv),
                                      "--lh", "13,48,16"])
        assert code == 1 and out == ""
        assert f"{flag[2:]} must be positive and finite, got {float(value)}" in err

    def test_infeasible_radix_refused_before_the_scan(self, capsys, monkeypatch):
        def no_scan(t):
            raise AssertionError("compare ran the breadth-first scan")

        monkeypatch.setattr(compare, "distances", no_scan)
        code, out, err = run(capsys, ["compare", "--ports", "131072", "--radix", "63",
                                      "--lh-code", str(DATA / "g48_13_16.txt")])
        assert code == 2 and out == ""
        assert err == ("infeasible: radix 63 too small for m + delta = 64 topological"
                       " plus server ports\n")

    def test_bad_triple(self, capsys):
        code, _, err = run(
            capsys,
            ["compare", "--ports", "131072", "--radix", "64", "--lh", "13,48"],
        )
        assert code == 1


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["cluster", "{hops}", "--levels", "1"],
        ["ftable", "{hops}", "--diversity", "2"],
        ["optimize", "-d", "3", "-m", "4"],
    ], ids=["cluster", "ftable", "optimize"])
    @pytest.mark.parametrize("target,reason", [
        ("missing/out.csv", "No such file or directory"), (".", "Is a directory"),
    ], ids=["missing-dir", "directory"])
    def test_unwritable_output_is_input_error(self, capsys, folded3_file, tmp_path,
                                              argv, target, reason):
        path = tmp_path / target
        argv = [arg.format(hops=folded3_file) for arg in argv] + ["-o", str(path)]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert err == f"error: cannot write {path}: {reason}\n"
        assert out == ""

    @pytest.mark.parametrize("argv,module,work", [
        (["cluster", "{hops}", "--levels", "1"], topology, "cluster"),
        (["ftable", "{hops}", "--diversity", "2"], routing, "forwarding_table"),
        (["optimize", "-d", "3", "-m", "4"], optimize, "brute_force_search"),
        (["optimize", "-d", "3", "-m", "4", "--method", "greedy"], optimize, "greedy_improve"),
    ], ids=["cluster", "ftable", "optimize", "optimize-greedy"])
    def test_unwritable_output_refused_before_the_work(self, capsys, monkeypatch, folded3_file,
                                                       tmp_path, argv, module, work):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output was opened")

        monkeypatch.setattr(module, work, no_work)
        path = tmp_path / "missing" / "out.csv"
        argv = [arg.format(hops=folded3_file) for arg in argv] + ["-o", str(path)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"

    @pytest.mark.parametrize("argv,message", [
        (["cluster", "{hops}", "--levels", "4"], "levels must be in 0..3"),
        (["ftable", "{hops}", "--diversity", "5"], "diversity must be in 1..4"),
        (["optimize", "-d", "3", "-m", "20"], "brute force budget exceeded"),
        (["bisect", "{hops}", "--spectrum"], "interrupted"),
    ], ids=["cluster", "ftable", "optimize", "bisect-midway"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failed_run_leaves_no_output_file(self, capsys, monkeypatch, folded3_file, tmp_path,
                                              argv, message, existing):
        # refused once -o is open, or failing after the spectrum's first rows
        # are written: the scan's chunks are read twice, for b and for the rows
        cut_chunks, calls = topology.cut_chunks, []

        def interrupted(t):
            calls.append(t)
            yield from cut_chunks(t)
            if len(calls) == 2:
                raise ValueError("interrupted")

        monkeypatch.setattr(topology, "cut_chunks", interrupted)
        path = tmp_path / "out.txt"
        if existing:
            path.write_text("an earlier run\n", encoding="utf-8")
        argv = [arg.format(hops=folded3_file) for arg in argv] + ["-o", str(path)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err
        assert not path.exists()

    def test_unknown_flag(self, capsys, folded3_file):
        code, _, err = run(capsys, ["bisect", folded3_file, "--bogus"])
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1


class TestNarrowParser:
    @pytest.mark.parametrize("argv,command", [
        (["--seed", "5", "verify", "{hops}"], "verify"),
        (["--seed=5", "routes", "{hops}", "--dest", "110"], "routes"),
        (["--seed", "x", "bisect", "{hops}"], "bisect"),   # refused by the shared top level
        (["bisect", "-h"], "bisect"),
        (["-h"], None),
        (["-h", "bisect"], None),
        (["--help"], None),
        (["frobnicate", "{hops}"], None),
        ([], None),
        (["--seed", "x"], None),
        (["--seed"], None),
        (["--se", "5", "verify", "{hops}"], None),   # an abbreviation takes the full parser
    ])
    def test_same_as_full_parser(self, capsys, monkeypatch, folded3_file, argv, command):
        argv = [arg.format(hops=folded3_file) for arg in argv]
        assert cli._command_name(argv) == command

        def outcome():
            try:
                code = main(argv)
            except SystemExit as exc:   # help
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        narrow = outcome()
        monkeypatch.setattr(cli, "_command_name", lambda argv: None)
        assert narrow == outcome()
        assert parse_outcome(cli._build_parser(command), argv) == parse_outcome(
            cli._build_parser(), argv)

    def test_full_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(cli._COMMANDS) + "}" in out
        assert all(f"    {name}" in out for name in cli._COMMANDS)

    def test_cap_refusal_names_the_flag(self, capsys, tmp_path):
        path = tmp_path / "d25.hops"
        path.write_text(topology.emit_hopset(topology.build(25, [1 << i for i in range(25)])))
        rows = tmp_path / "rows.txt"
        for argv in (["bisect", str(path), "--spectrum", "-o", str(rows)],
                     ["cluster", str(path), "--levels", "1", "-o", str(rows)],
                     ["verify", str(path)]):
            code, out, err = run(capsys, argv)
            assert code == 1 and out == ""
            assert err == "error: d=25 exceeds the full-spectrum cap 24; --allow-large lifts it\n"
            assert not rows.exists()
        flagged = []
        for name, (_, add_args, _) in cli._COMMANDS.items():
            parser = argparse.ArgumentParser()
            add_args(parser)
            if "--allow-large" in parser.format_help():
                flagged.append(name)
        assert flagged == ["bisect", "cluster", "verify"]

    def test_plain_bisect_is_not_capped(self, capsys, tmp_path):
        # the scan streams its cuts, so d = 25 runs without a flag; b is the code's distance
        d, rng = 25, random.Random(25)
        hops = [1 << i for i in range(d)]
        while len(hops) < 40:
            w = rng.getrandbits(d)
            if w & (w - 1) and w not in hops:
                hops.append(w)
        path, genfile = tmp_path / "d25.hops", tmp_path / "d25.txt"
        path.write_text(topology.emit_hopset(topology.build(d, hops)))
        code, out, err = run(capsys, ["bisect", str(path)])
        assert (code, err) == (0, "")
        assert run(capsys, ["convert", "--to-code", str(path), "-o", str(genfile)])[0] == 0
        code, mindist, _ = run(capsys, ["mindist", str(genfile)])
        assert code == 0
        b = out.split("\nb: ")[1].split()[0]
        assert f"min_distance: {b}\n" in mindist

    @pytest.mark.parametrize("argv", [
        ["routes", "HOPS", "--dest", "1" * 25, "--diversity", "4"],
        ["optimize", "-d", "25", "-m", "30", "--method", "greedy"],
        ["optimize", "-d", "25", "-m", "25", "--method", "greedy", "--start", "HOPS"],
    ], ids=["routes", "greedy-default-start", "greedy-start"])
    def test_cap_refusal_without_the_flag_names_the_limit(self, capsys, tmp_path, argv):
        # none of these commands takes --allow-large, so the message names no way to lift the cap
        path = tmp_path / "d25.hops"
        path.write_text(topology.emit_hopset(topology.build(25, [1 << i for i in range(25)])))
        code, out, err = run(capsys, [str(path) if a == "HOPS" else a for a in argv])
        assert code == 1 and out == ""
        assert err == "error: d=25 exceeds the full-spectrum cap 24\n"


class TestFreshProcess:
    # Run in a fresh interpreter: prints, per command, its exit status and
    # whether numpy.ma has been imported by then.
    SCRIPT = """
import json, sys
from longhop import cli
for argv in json.loads(sys.argv[1]):
    status = cli.main(argv)
    print(json.dumps([argv, status, "numpy.ma" in sys.modules]), file=sys.stderr)
"""

    def test_no_command_imports_numpy_ma(self, tmp_path):
        # np.unique, among others, imports numpy.ma: 14-20 ms of a fresh
        # process, more than some commands' own work
        hops, code, g48 = (str(DATA / name) for name in ("folded3.hops", "hamming_7_4.txt",
                                                         "g48_13_16.txt"))
        edges = tmp_path / "square.txt"
        edges.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
        out = str(tmp_path / "out")
        commands = [
            ["mindist", code],
            ["convert", "--to-hops", code, "-o", out],
            ["convert", "--to-code", hops],
            ["bisect", hops],
            ["bisect", "--spectrum", "--format", "json", hops],
            ["optimize", "-d", "3", "-m", "4"],
            ["optimize", "-d", "3", "-m", "4", "--method", "greedy", "--start", hops],
            ["routes", hops, "--dest", "110"],
            ["routes", hops, "--dest", "110", "--diversity", "2"],
            ["ftable", hops, "--diversity", "2"],
            ["cluster", hops, "--levels", "2", "-o", out],
            *(["compare", "--ports", "131072", "--radix", "64", "--lh-code", g48, "--format", f]
              for f in ("text", "csv", "json")),
            ["verify", hops],
            ["verify", "--edge-list", str(edges)],
        ]
        package_root = os.path.dirname(os.path.dirname(longhop.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(commands)],
                              capture_output=True, text=True, env=env, check=True)
        report = [json.loads(line) for line in proc.stderr.splitlines() if line.startswith("[")]
        assert [argv for argv, _, _ in report] == commands
        assert all(status == 0 for _, status, _ in report), report
        assert not any(imported for _, _, imported in report), report

    def test_builds_only_the_named_subparser(self):
        # every argparse parser built, by prog: at import, then per call
        script = """
import argparse, json, sys
built = []
init = argparse.ArgumentParser.__init__
def record(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)
argparse.ArgumentParser.__init__ = record
from longhop import cli
print(json.dumps(built), file=sys.stderr)
for argv in json.loads(sys.argv[1]):
    built.clear()
    print(json.dumps([cli.main(argv), built]), file=sys.stderr)
"""
        hops = str(DATA / "folded3.hops")
        commands = [["routes", hops, "--dest", "110", "--diversity", "2"], ["frobnicate"]]
        package_root = os.path.dirname(os.path.dirname(longhop.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              capture_output=True, text=True, env=env, check=True)
        at_import, *report = [json.loads(line) for line in proc.stderr.splitlines()
                              if line.startswith("[")]
        assert at_import == []
        assert report == [
            [0, ["longhop", "longhop routes"]],
            [1, ["longhop", *(f"longhop {name}" for name in cli._COMMANDS)]],
        ]
