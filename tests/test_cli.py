"""End-to-end command-line behaviour and the operation coverage table."""

import functools
import pathlib
import re
import sys

import pytest

import dclat
from dclat import cli, paths
from dclat.cli import main
from dclat.dcp import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_check_distributive_passes(self, capsys, data_dir):
        code, out, _ = run(capsys, "check", str(data_dir / "fig1L.dcp"), "--prop", "distributive")
        assert code == 0 and "distributive" in out

    def test_check_modular_fails_with_witness(self, capsys, data_dir):
        code, out, _ = run(capsys, "check", str(data_dir / "n5.dcp"), "--prop", "modular")
        assert code == 1 and "witness" in out

    def test_parse_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.dcp"
        bad.write_text("type vertex-poset\nvortex a\n")
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 2 and "line 2" in err

    def test_validation_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.dcp"
        bad.write_text("type vertex-poset\nvertex a color 1\nedge a b\n")
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 2 and "undeclared" in err

    def test_superscript_digits_are_usage_errors(self, capsys, tmp_path, data_dir):
        # "\u00b2".isdigit() holds but int() refuses it; each input reader reports it as an error
        bad = tmp_path / "bad.dcp"
        bad.write_text("type edge-lattice\nvertex a\nvertex b\nedge a b color \u00b2\n")
        m3 = str(data_dir / "m3.dcp")
        for argv, message in [
            (["check", str(bad), "--prop", "lattice"], "line 4, col 16: color must be a non-negative integer, got '\u00b2'"),
            (["components", m3, "--colors", "\u00b2"], "colors must be integers, got '\u00b2'"),
            (["transform", m3, "--op", "recolor:1=\u00b2"], "recoloring entries must be integers, got '1=\u00b2'"),
        ]:
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_not_a_lattice_is_1(self, capsys, tmp_path):
        vee = tmp_path / "vee.dcp"
        vee.write_text("type edge-lattice\nvertex a\nvertex b\nvertex c\nedge a b color 1\nedge a c color 1\n")
        code, out, _ = run(capsys, "check", str(vee), "--prop", "distributive")
        assert code == 1
        assert out == "not a lattice: 'b' and 'c' have no common upper bound\n"

    def test_usage_error_is_2(self, capsys):
        assert main(["check"]) == 2

    def test_unknown_vertex_is_2(self, capsys, data_dir):
        code, out, err = run(capsys, "dist", str(data_dir / "fig1L.dcp"), "--from", "nope", "--to", "v5")
        assert (code, out, err) == (2, "", "error: unknown vertex 'nope'\n")

    def test_invalid_generator_spec_is_2(self, capsys):
        for argv, message in [
            (["--kind", "chain", "-n", "-1"], "n must be non-negative"),
            (["--kind", "random", "-n", "5", "-p", "1.5"], "edge probability must lie in [0, 1]"),
        ]:
            code, out, err = run(capsys, "gen", *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["render", "fig1L.dcp", "--format", "svg"], "unknown render format 'svg'"),
            (["transform", "fig1L.dcp", "--op", "spin"], "unknown transform 'spin'"),
            (["transform", "fig1P.dcp", "--op", "product:m3.dcp"], "product requires edge-lattice inputs"),
            (["transform", "fig1L.dcp", "--op", "recolor:1"], "bad recoloring entry '1', expected OLD=NEW"),
        ],
    )
    def test_bad_format_or_op_is_2(self, capsys, data_dir, argv, message):
        argv = [re.sub(r"\w+\.dcp", lambda m: str(data_dir / m[0]), a) for a in argv]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_partial_recoloring_is_2(self, capsys, data_dir):
        code, out, err = run(capsys, "transform", str(data_dir / "m3.dcp"), "--op", "recolor:2=3")
        assert (code, out, err) == (2, "", "error: recoloring undefined on colors [1]\n")

    def test_partial_sigma_is_2(self, capsys, data_dir):
        code, out, err = run(capsys, "verify", str(data_dir / "fig1P.dcp"), "--theorem", "cor8", "--sigma", "1=2")
        assert (code, out, err) == (2, "", "error: recoloring undefined on colors [2]\n")

    def test_prop3_past_its_pair_cap_is_2(self, capsys, data_dir, monkeypatch):
        from dclat import paths

        monkeypatch.setattr(paths, "COMPARABLE_PAIR_CAP", 10)
        code, out, err = run(capsys, "verify", str(data_dir / "fig1L.dcp"), "--theorem", "prop3")
        assert (code, out) == (2, "")
        # one pair per line of the prop3 golden on fig1L
        assert err == "error: 94 comparable pairs exceed cap 10\n"

    def test_missing_file_is_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "parse", str(tmp_path / "absent.dcp"))
        assert code == 2

    def test_input_over_cap_is_2(self, capsys, tmp_path):
        # 17 is the smallest antichain past the cap; its ideal lattice would need gigabytes
        for n in ("17", "21"):
            antichain = tmp_path / "a.dcp"
            _, text, _ = run(capsys, "gen", "--kind", "antichain", "-n", n)
            antichain.write_text(text)
            code, out, err = run(capsys, "birkhoff", str(antichain), "--op", "J")
            assert code == 2 and out == "" and "exceeds cap 65536" in err


class TestCommands:
    def test_parse_emits_canonical(self, capsys, data_dir):
        code, out, _ = run(capsys, "parse", str(data_dir / "fig1P.dcp"))
        assert code == 0 and out.startswith("type vertex-poset")

    def test_check_all_props_on_fig(self, capsys, data_dir):
        for prop in ("ranked", "diamond", "balanced", "lattice", "modular", "distributive"):
            code, _, _ = run(capsys, "check", str(data_dir / "fig1L.dcp"), "--prop", prop)
            assert code == 0, prop
        code, _, _ = run(capsys, "check", str(data_dir / "fig1L.dcp"), "--prop", "boolean")
        assert code == 1

    def test_check_diamond_fails_on_mismatch(self, capsys, data_dir):
        code, out, _ = run(capsys, "check", str(data_dir / "b2_mismatched.dcp"), "--prop", "diamond")
        assert code == 1 and "diamond" in out

    def test_components_lists_four(self, capsys, data_dir):
        code, out, _ = run(capsys, "components", str(data_dir / "fig1L.dcp"), "--colors", "2")
        assert code == 0
        sizes = sorted(int(line.split("size ")[1].split(",")[0]) for line in out.splitlines())
        assert sizes == [2, 3, 4, 6]

    def test_birkhoff_roundtrip(self, capsys, data_dir, fig_poset):
        code, out, _ = run(capsys, "birkhoff", str(data_dir / "fig1P.dcp"), "--op", "J")
        assert code == 0
        lattice = parse(out)
        assert len(lattice) == 15
        code, out, _ = run(capsys, "birkhoff", str(data_dir / "fig1L.dcp"), "--op", "j")
        assert code == 0
        poset = parse(out)
        assert dclat.isomorphic(poset, fig_poset)

    def test_birkhoff_long_chain(self, capsys, tmp_path):
        # ideal enumeration must not recurse once per vertex
        _, text, _ = run(capsys, "gen", "--kind", "chain", "-n", "1100")
        chain = tmp_path / "chain.dcp"
        chain.write_text(text)
        code, out, _ = run(capsys, "birkhoff", str(chain), "--op", "J")
        assert code == 0
        assert sum(line.startswith("vertex ") for line in out.splitlines()) == 1102

    def test_birkhoff_kind_mismatch(self, capsys, data_dir):
        code, _, err = run(capsys, "birkhoff", str(data_dir / "fig1L.dcp"), "--op", "J")
        assert code == 2

    def test_transform_dual_and_sum(self, capsys, data_dir):
        code, out, _ = run(capsys, "transform", str(data_dir / "fig1P.dcp"), "--op", "dual")
        assert code == 0 and parse(out) is not None
        code, out, _ = run(
            capsys, "transform", str(data_dir / "fig5P1.dcp"), "--op", f"sum:{data_dir / 'fig5P2.dcp'}"
        )
        assert code == 0 and len(parse(out)) == 6

    def test_transform_recolor_and_product(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "transform", str(data_dir / "fig1L.dcp"), "--op", "recolor:1=3,2=4"
        )
        assert code == 0 and parse(out).colors_used == {3, 4}
        code, out, _ = run(
            capsys, "transform", str(data_dir / "m3.dcp"), "--op", f"product:{data_dir / 'm3.dcp'}"
        )
        assert code == 0 and len(parse(out)) == 25

    def test_dist(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "dist", str(data_dir / "fig1L.dcp"),
            "--from", "empty", "--to", "v1.v2.v3.v4.v5.v6",
        )
        assert code == 0 and "distance 6" in out

    def test_gen_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "--kind", "random", "-n", "6", "-p", "0.3", "--seed", "42")
        _, out2, _ = run(capsys, "gen", "--kind", "random", "-n", "6", "-p", "0.3", "--seed", "42")
        assert out1 == out2

    def test_gen_boolean(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "boolean", "-n", "3")
        assert code == 0 and len(parse(out)) == 8

    def test_render_dot(self, capsys, data_dir):
        code, out, _ = run(capsys, "render", str(data_dir / "fig1P.dcp"), "--format", "dot")
        assert code == 0 and out.startswith("digraph")

    def test_stdin_input(self, capsys, monkeypatch, data_dir):
        import io

        text = (data_dir / "m3.dcp").read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "check", "-", "--prop", "modular")
        assert code == 0


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "theorem,source",
        [
            ("ft", "fig1P.dcp"),
            ("ft", "fig1L.dcp"),
            ("cor7", "fig1L.dcp"),
            ("prop1", "fig1L.dcp"),
            ("prop3", "fig1L.dcp"),
            ("prop12", "fig1L.dcp"),
            ("prop13", "fig1L.dcp"),
            ("subord", "fig1P.dcp"),
            ("thm11", "fig1P.dcp"),
            ("prop10", "m3.dcp"),
        ],
    )
    def test_verify_passes(self, capsys, data_dir, theorem, source):
        code, out, _ = run(capsys, "verify", str(data_dir / source), "--theorem", theorem)
        assert code == 0, out

    def test_verify_cor8_with_pair(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "verify", str(data_dir / "fig5P1.dcp"), "--theorem", "cor8",
            "--with", str(data_dir / "fig5P2.dcp"), "--sigma", "1=5,2=6",
        )
        assert code == 0, out

    def test_prop1_compares_balance_with_the_rank_identity(self, capsys, data_dir, monkeypatch):
        # balance wrongly reported on N5, also where is_modular reads it, must
        # disagree with the pairwise rank identity
        for name in ("dclat.cli.paths", "dclat.lattice"):
            monkeypatch.setattr(
                f"{name}.check_topographically_balanced", lambda p: paths.CheckResult(True, None)
            )
        code, out, err = run(capsys, "verify", str(data_dir / "n5.dcp"), "--theorem", "prop1")
        assert (code, err) == (1, "")
        assert out == (
            "FAIL distance and balance laws\n"
            "  [FAIL] balance agrees with the modular rank identity\n"
        )

    def test_verify_cor7_negative(self, capsys, data_dir):
        code, out, _ = run(capsys, "verify", str(data_dir / "b2_mismatched.dcp"), "--theorem", "cor7")
        assert code == 1

    def test_verify_thm11_with_weakening(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "verify", str(data_dir / "fig1P.dcp"), "--theorem", "thm11",
            "--with", str(data_dir / "fig5Q.dcp"),
        )
        assert code == 0, out


class TestVerifyFailurePaths:
    """Exit code, stdout and stderr of every way a verify run can fall short."""

    @pytest.mark.parametrize(
        "argv,exit_code,out,err",
        [
            *[
                (["fig1P.dcp", "--theorem", theorem], 2, "",
                 "error: {d}/fig1P.dcp: expected an edge-lattice document\n")
                for theorem in ("cor7", "prop1", "prop3", "prop10", "prop12", "prop13")
            ],
            *[
                (["fig1L.dcp", "--theorem", theorem], 2, "",
                 "error: {d}/fig1L.dcp: expected a vertex-poset document\n")
                for theorem in ("cor8", "thm11", "subord")
            ],
            (["fig1P.dcp", "--theorem", "cor8", "--with", "m3.dcp"], 2, "",
             "error: {d}/m3.dcp: expected a vertex-poset document\n"),
            (["m3.dcp", "--theorem", "prop10", "--with", "fig1P.dcp"], 2, "",
             "error: {d}/fig1P.dcp: expected an edge-lattice document\n"),
            (["fig1P.dcp", "--theorem", "thm11", "--with", "m3.dcp"], 2, "",
             "error: {d}/m3.dcp: expected a vertex-poset document\n"),
            # FILE loads before --with, so its error is the one reported
            (["fig1L.dcp", "--theorem", "thm11", "--with", "m3.dcp"], 2, "",
             "error: {d}/fig1L.dcp: expected a vertex-poset document\n"),
            (["m3.dcp", "--theorem", "prop12"], 1, "property failure: lattice is not distributive\n", ""),
            (["m3.dcp", "--theorem", "cor7"], 1, "property failure: lattice is not distributive\n", ""),
            (["n5.dcp", "--theorem", "prop3"], 1, "property failure: lattice is not modular\n", ""),
            (["n5.dcp", "--theorem", "prop13"], 1, "property failure: lattice is not modular\n", ""),
            (["n5.dcp", "--theorem", "prop10"], 1, "property failure: factor 0 is not modular\n", ""),
            (["fig1P.dcp", "--theorem", "thm11", "--with", "fig5P1.dcp"], 1,
             "property failure: orders must share one vertex set\n", ""),
        ],
    )
    def test_failure_path(self, capsys, data_dir, argv, exit_code, out, err):
        argv = [str(data_dir / a) if a.endswith(".dcp") else a for a in argv]
        assert run(capsys, "verify", *argv) == (exit_code, out, err.format(d=data_dir))

    def test_subord_prints_each_subset_before_a_later_one_fails(self, capsys, data_dir, monkeypatch):
        from dclat import substructure
        from dclat.errors import EnumerationCapExceeded

        search = substructure.subordinates_by_definition
        calls = []

        def failing_third(P, J):
            calls.append(J)
            if len(calls) == 3:
                raise EnumerationCapExceeded("third subset over cap")
            return search(P, J)

        monkeypatch.setattr(substructure, "subordinates_by_definition", failing_third)
        code, out, err = run(capsys, "verify", str(data_dir / "fig1P.dcp"), "--theorem", "subord")
        golden = (data_dir / "golden" / "verify-subord-fig1P.out").read_text(encoding="utf-8")
        assert (code, err) == (2, "error: third subset over cap\n")
        assert out == golden[: golden.index("PASS subordinate correspondence for colors [2]")]


VERIFY_FILES = {"ft": "fig1P.dcp", "cor7": "fig1L.dcp", "cor8": "fig1P.dcp", "prop1": "fig1L.dcp",
                "prop3": "fig1L.dcp", "prop10": "m3.dcp", "prop12": "fig1L.dcp", "prop13": "fig1L.dcp",
                "thm11": "fig1P.dcp", "subord": "fig1P.dcp"}
VERIFY_READS = {"cor8": ("with", "sigma"), "prop1": ("seed",), "prop10": ("with",), "thm11": ("with",)}


class TestVerifyOptions:
    """An option that a theorem does not read is a usage error; one that it reads runs the suite."""

    @pytest.mark.parametrize("option", ["with", "sigma", "seed"])
    @pytest.mark.parametrize("theorem", sorted(cli.VERIFY))
    def test_each_theorem_and_option(self, capsys, data_dir, theorem, option):
        value = {"with": str(data_dir / ("m3.dcp" if theorem == "prop10" else "fig5Q.dcp")),
                 "sigma": "1=2,2=1", "seed": "3"}[option]
        code, out, err = run(capsys, "verify", str(data_dir / VERIFY_FILES[theorem]), "--theorem", theorem,
                             f"--{option}", value)
        if option in VERIFY_READS.get(theorem, ()):
            assert (code, err) == (0, ""), out
        else:
            assert (code, out, err) == (2, "", f"error: --{option} is not read by --theorem {theorem}\n")

    def test_the_first_unread_option_is_named_before_any_file_is_read(self, capsys, data_dir):
        code, out, err = run(capsys, "verify", str(data_dir / "missing.dcp"), "--theorem", "ft",
                             "--seed", "1", "--with", str(data_dir / "fig5P1.dcp"))
        assert (code, out, err) == (2, "", "error: --with is not read by --theorem ft\n")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["parse", "{d}/fig1L.dcp"],
            ["components", "{d}/fig1L.dcp", "--colors", "2"],
            ["subordinates", "{d}/fig1P.dcp", "--colors", "1,2"],
            ["birkhoff", "{d}/fig1P.dcp", "--op", "M"],
            ["transform", "{d}/fig1L.dcp", "--op", "dual"],
            ["render", "{d}/fig1L.dcp", "--format", "dot"],
            ["verify", "{d}/fig1P.dcp", "--theorem", "subord"],
            ["dist", "{d}/fig1L.dcp", "--from", "v5", "--to", "v2.v5.v6"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, data_dir, argv):
        argv = [a.format(d=data_dir) for a in argv]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2


class TestGoldenOutput:
    """Stdout recorded before refactors of the code behind each command; it must stay byte for byte."""

    @pytest.mark.parametrize(
        "argv,golden,exit_code",
        [
            (["birkhoff", "fig1P.dcp", "--op", "J"], "birkhoff-J-fig1P.out", 0),
            (["birkhoff", "fig1P.dcp", "--op", "M"], "birkhoff-M-fig1P.out", 0),
            (["birkhoff", "fig5P1.dcp", "--op", "J"], "birkhoff-J-fig5P1.out", 0),
            (["birkhoff", "fig5P1.dcp", "--op", "M"], "birkhoff-M-fig5P1.out", 0),
            (["birkhoff", "fig1L.dcp", "--op", "j"], "birkhoff-j-fig1L.out", 0),
            (["birkhoff", "fig1L.dcp", "--op", "m"], "birkhoff-m-fig1L.out", 0),
            (["check", "n5.dcp", "--prop", "balanced"], "check-balanced-n5.out", 1),
            (["check", "n5.dcp", "--prop", "ranked"], "check-ranked-n5.out", 1),
            (["check", "m3.dcp", "--prop", "balanced"], "check-balanced-m3.out", 0),
            (["components", "fig1L.dcp", "--colors", "2"], "components-2-fig1L.out", 0),
            (["components", "fig1L.dcp", "--colors", "1"], "components-1-fig1L.out", 0),
            (["components", "fig1L.dcp", "--colors", "1,2"], "components-12-fig1L.out", 0),
            (["components", "m3xb3.dcp", "--colors", "1"], "components-1-m3xb3.out", 0),
            (["components", "n5.dcp", "--colors", "1"], "components-1-n5.out", 1),
            (["components", "b2_mismatched.dcp", "--colors", "1"], "components-1-b2_mismatched.out", 1),
            (["verify", "m3xb3.dcp", "--theorem", "prop13"], "verify-prop13-m3xb3.out", 0),
            (["verify", "m3.dcp", "--theorem", "prop13"], "verify-prop13-m3.out", 0),
            (["subordinates", "fig1P.dcp", "--colors", "1,2"], "subordinates-12-fig1P.out", 0),
            (["verify", "fig1P.dcp", "--theorem", "subord"], "verify-subord-fig1P.out", 0),
            (["verify", "fig1L.dcp", "--theorem", "prop13"], "verify-prop13-fig1L.out", 0),
            (["verify", "m3.dcp", "--theorem", "prop10"], "verify-prop10-m3.out", 0),
            (["check", "m3.dcp", "--prop", "lattice"], "check-lattice-m3.out", 0),
            (["check", "m3.dcp", "--prop", "modular"], "check-modular-m3.out", 0),
            (["check", "m3.dcp", "--prop", "distributive"], "check-distributive-m3.out", 1),
            (["check", "n5.dcp", "--prop", "lattice"], "check-lattice-n5.out", 0),
            (["check", "n5.dcp", "--prop", "modular"], "check-modular-n5.out", 1),
            (["check", "n5.dcp", "--prop", "distributive"], "check-distributive-n5.out", 1),
            (["check", "fig1L.dcp", "--prop", "lattice"], "check-lattice-fig1L.out", 0),
            (["check", "fig1L.dcp", "--prop", "modular"], "check-modular-fig1L.out", 0),
            (["check", "fig1L.dcp", "--prop", "distributive"], "check-distributive-fig1L.out", 0),
            (["verify", "fig1P.dcp", "--theorem", "ft"], "verify-ft-fig1P.out", 0),
            (["verify", "fig1L.dcp", "--theorem", "ft"], "verify-ft-fig1L.out", 0),
            (["verify", "fig1L.dcp", "--theorem", "cor7"], "verify-cor7-fig1L.out", 0),
            (["verify", "m3.dcp", "--theorem", "cor7"], "verify-cor7-m3.out", 1),
            (["verify", "b2_mismatched.dcp", "--theorem", "cor7"], "verify-cor7-b2_mismatched.out", 1),
            (["verify", "n5.dcp", "--theorem", "ft"], "verify-ft-n5.out", 1),
            (["verify", "m3xb3.dcp", "--theorem", "ft"], "verify-ft-m3xb3.out", 1),
            (["verify", "fig1P.dcp", "--theorem", "cor8", "--with", "fig5Q.dcp"], "verify-cor8-fig1P-fig5Q.out", 0),
            (["verify", "fig1P.dcp", "--theorem", "thm11"], "verify-thm11-fig1P.out", 0),
            (["check", "b2_mismatched.dcp", "--prop", "diamond"], "check-diamond-b2_mismatched.out", 1),
            (["check", "b2_mismatched.dcp", "--prop", "boolean"], "check-boolean-b2_mismatched.out", 0),
            (["check", "fig1L.dcp", "--prop", "boolean"], "check-boolean-fig1L.out", 1),
            (["verify", "fig1L.dcp", "--theorem", "prop1"], "verify-prop1-fig1L.out", 0),
            (["verify", "fig1L.dcp", "--theorem", "prop12"], "verify-prop12-fig1L.out", 0),
            (["verify", "fig1L.dcp", "--theorem", "prop10", "--with", "m3.dcp"], "verify-prop10-fig1L-m3.out", 0),
            (["transform", "fig1L.dcp", "--op", "product:m3.dcp"], "transform-product-fig1L-m3.out", 0),
            (["check", "m3xb3.dcp", "--prop", "distributive"], "check-distributive-m3xb3.out", 1),
            (["check", "n5xhexagon.dcp", "--prop", "distributive"], "check-distributive-n5xhexagon.out", 1),
            (["parse", "fig1P.dcp"], "parse-fig1P.out", 0),
            (["parse", "fig1L.dcp"], "parse-fig1L.out", 0),
            (["render", "fig1P.dcp", "--format", "dot"], "render-dot-fig1P.out", 0),
            (["render", "fig1L.dcp", "--format", "dot"], "render-dot-fig1L.out", 0),
            (["render", "n5.dcp", "--format", "dot"], "render-dot-n5.out", 0),
            (["render", "fig5Q.dcp", "--format", "dot"], "render-dot-fig5Q.out", 0),
            (["transform", "fig1P.dcp", "--op", "dual"], "transform-dual-fig1P.out", 0),
            (["transform", "fig1L.dcp", "--op", "dual"], "transform-dual-fig1L.out", 0),
            (["transform", "fig1P.dcp", "--op", "recolor:1=3,2=4"], "transform-recolor-fig1P.out", 0),
            (["transform", "fig1L.dcp", "--op", "recolor:1=3,2=4"], "transform-recolor-fig1L.out", 0),
            (["transform", "fig5P1.dcp", "--op", "sum:fig5P2.dcp"], "transform-sum-fig5P1-fig5P2.out", 0),
            (["transform", "m3.dcp", "--op", "sum:m3.dcp"], "transform-sum-m3-m3.out", 0),
            (["verify", "fig1L.dcp", "--theorem", "prop3"], "verify-prop3-fig1L.out", 0),
            (["dist", "fig1L.dcp", "--from", "empty", "--to", "v1.v2.v3.v4.v5.v6"], "dist-empty-top-fig1L.out", 0),
            (["dist", "fig1L.dcp", "--from", "v5", "--to", "v2.v5.v6"], "dist-v5-v2.v5.v6-fig1L.out", 0),
            # not a lattice, so only the graph distance is printed
            (["dist", "nonlattice/vee.dcp", "--from", "a", "--to", "b"], "dist-a-b-vee.out", 0),
        ],
    )
    def test_matches_golden(self, capsys, data_dir, argv, golden, exit_code):
        # a file name may follow an op prefix, as in product:m3.dcp
        argv = [
            prefix + sep + str(data_dir / name) if name.endswith(".dcp") else a
            for a in argv
            for prefix, sep, name in [a.rpartition(":")]
        ]
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        assert out == (data_dir / "golden" / golden).read_text(encoding="utf-8")


# Which operations each subcommand reaches; every public operation appears
# exactly once, under a command that reaches it or else under LIBRARY_ONLY.
LIBRARY_ONLY = "(library only)"
COMMAND_OPERATIONS = {
    "parse": ["dcp.parse", "dcp.emit"],
    "render": ["dcp.render_dot"],
    "gen": ["generators.generate", "generators.random_poset"],
    "check": [
        "paths.compute_rank",
        "paths.check_diamond_colored",
        "paths.check_topographically_balanced",
        "lattice.as_lattice",
        "lattice.is_modular",
        "lattice.is_distributive",
        "lattice.is_boolean",
    ],
    "dist": [
        "paths.distance",
        "paths.distance_modular",
        "EdgeColoredPoset.leq",
    ],
    "birkhoff": [
        "birkhoff.build_J",
        "birkhoff.build_M",
        "birkhoff.extract_j",
        "birkhoff.extract_m",
    ],
    "components": [
        "substructure.j_components",
    ],
    "subordinates": [
        "substructure.subordinate_of",
        "substructure.enumerate_subordinates",
    ],
    "transform": [
        "structures.dual",
        "structures.recolor",
        "structures.disjoint_sum",
        "structures.cartesian_product",
    ],
    "verify": [
        "birkhoff.verify_fundamental",
        "birkhoff.verify_fundamental_poset",
        "birkhoff.is_birkhoff_representable",
        "birkhoff.verify_transform_identities",
        "birkhoff.cover_color_profile",
        "birkhoff.principal_ideal",
        "birkhoff.descendant_interval_boolean",
        "birkhoff.ancestor_interval_boolean",
        "birkhoff.verify_interval_booleans",
        "LatticeView.interval",
        "EdgeColoredPoset.descendants",
        "EdgeColoredPoset.ancestors",
        "paths.rank_via_path",
        "paths.ascent_descent_counts",
        "paths.mountainize",
        "paths.valleyize",
        "paths.verify_path_colors",
        "lattice.verify_distance_laws",
        "substructure.check_sublattice",
        "substructure.verify_full_length_agreement",
        "substructure.verify_weakening",
        "substructure.weak_subposet",
        "substructure.sublattice_from_weak_subposet",
        "substructure.weak_subposet_from_sublattice",
        "substructure.verify_product_closure",
        "substructure.verify_component_structure",
        "substructure.color_subsets",
        "substructure.subordinates_by_definition",
        "substructure.verify_subordinate_correspondence",
    ],
    LIBRARY_ONLY: [
        "isomorphism.find_isomorphism",
        "isomorphism.isomorphic",
    ],
}

# Invocations of each subcommand that reach, between them, every operation
# listed for it; FILE arguments name fixtures under tests/data.
COMMAND_INVOCATIONS = {
    "parse": [["parse", "fig1L.dcp"]],
    "render": [["render", "fig1P.dcp"]],
    "gen": [["gen", "--kind", "random", "-n", "5", "-p", "0.5", "--seed", "1"]],
    "check": [["check", "m3xb3.dcp", "--prop", prop] for prop in cli.CHECKS],
    "dist": [["dist", "fig1L.dcp", "--from", "v5", "--to", "v2.v5.v6"]],
    "birkhoff": [["birkhoff", "fig1P.dcp", "--op", "J"], ["birkhoff", "fig1P.dcp", "--op", "M"],
                 ["birkhoff", "fig1L.dcp", "--op", "j"], ["birkhoff", "fig1L.dcp", "--op", "m"]],
    "components": [["components", "fig1L.dcp", "--colors", "1"]],
    "subordinates": [["subordinates", "fig1P.dcp", "--colors", "1,2"]],
    "transform": [["transform", "fig1L.dcp", "--op", op] for op in ("dual", "recolor:1=2,2=1,3=3", "product:m3.dcp")]
    + [["transform", "m3.dcp", "--op", "sum:m3.dcp"]],
    "verify": [["verify", "fig1P.dcp", "--theorem", theorem] for theorem in ("ft", "thm11", "subord")]
    + [["verify", "fig1L.dcp", "--theorem", theorem] for theorem in ("ft", "cor7", "prop1", "prop3", "prop12", "prop13")]
    + [["verify", "fig1P.dcp", "--theorem", "cor8", "--with", "fig5Q.dcp"],
       ["verify", "m3.dcp", "--theorem", "prop10", "--with", "fig1L.dcp"]],
}


def _wrap_where_looked_up(monkeypatch, op: str, called: set) -> None:
    """Replace ``op`` by a wrapper that adds it to ``called``, in its class or in every
    dclat module that binds it, since ``cli`` imports names such as ``dual`` directly."""
    owner, name = op.split(".")
    if owner[0].isupper():
        homes = [getattr(dclat, owner)]
    else:
        real = getattr(getattr(dclat, owner), name)
        homes = [m for key, m in sys.modules.items() if key.startswith("dclat.") and vars(m).get(name) is real]
    real = getattr(homes[0], name)

    @functools.wraps(real)
    def wrapper(*args, **kwargs):
        called.add(op)
        return real(*args, **kwargs)

    for home in homes:
        monkeypatch.setattr(home, name, wrapper)


class TestCoverageTable:
    def test_every_operation_listed_exactly_once(self):
        listed = [op for ops in COMMAND_OPERATIONS.values() for op in ops]
        assert len(listed) == len(set(listed))
        public_ops = {
            f"{mod}.{name}"
            for mod, names in {
                "dcp": ["parse", "emit", "render_dot"],
                "generators": ["generate", "random_poset"],
                "structures": ["dual", "recolor", "disjoint_sum", "cartesian_product"],
                "isomorphism": ["find_isomorphism", "isomorphic"],
                "paths": [
                    "compute_rank", "check_diamond_colored", "check_topographically_balanced",
                    "distance", "distance_modular", "rank_via_path", "ascent_descent_counts",
                    "mountainize", "valleyize", "verify_path_colors",
                ],
                "lattice": ["as_lattice", "is_modular", "is_distributive", "is_boolean", "verify_distance_laws"],
                "birkhoff": [
                    "build_J", "build_M", "extract_j", "extract_m",
                    "verify_fundamental", "verify_fundamental_poset",
                    "is_birkhoff_representable", "verify_transform_identities",
                    "cover_color_profile", "principal_ideal",
                    "descendant_interval_boolean", "ancestor_interval_boolean",
                    "verify_interval_booleans",
                ],
                "substructure": [
                    "check_sublattice", "verify_full_length_agreement", "weak_subposet",
                    "sublattice_from_weak_subposet", "weak_subposet_from_sublattice",
                    "verify_product_closure", "j_components", "verify_component_structure",
                    "subordinate_of", "enumerate_subordinates", "subordinates_by_definition",
                    "verify_subordinate_correspondence", "verify_weakening", "color_subsets",
                ],
            }.items()
            for name in names
        }
        assert public_ops <= set(listed)

    def test_library_only_operations_are_named_outside_the_tests(self):
        """Each library-only name appears in a script or benchmark, so it has a caller besides the tests."""
        root = pathlib.Path(__file__).parents[1]
        source = "".join(f.read_text(encoding="utf-8") for d in ("scripts", "perfbench") for f in (root / d).glob("*.py"))
        unnamed = [op for op in COMMAND_OPERATIONS[LIBRARY_ONLY] if not re.search(rf"\b{op.rpartition('.')[2]}\b", source)]
        assert unnamed == []

    def test_commands_all_registered(self):
        parser = cli._build_parser()
        registered = set(COMMAND_OPERATIONS) - {LIBRARY_ONLY}
        actions = parser._subparsers._group_actions[0].choices
        assert registered == set(actions)

    @pytest.mark.parametrize("command", sorted(COMMAND_INVOCATIONS))
    def test_each_command_reaches_its_operations(self, capsys, monkeypatch, data_dir, command):
        """The operations listed under a command are called by its invocations, and no
        invocation of any command calls a library-only one."""
        called = set()
        for op in COMMAND_OPERATIONS[command] + COMMAND_OPERATIONS[LIBRARY_ONLY]:
            _wrap_where_looked_up(monkeypatch, op, called)
        for argv in COMMAND_INVOCATIONS[command]:
            argv = [re.sub(r"\w+\.dcp", lambda m: str(data_dir / m[0]), a) for a in argv]
            assert main(argv) in (0, 1), argv
        capsys.readouterr()
        assert sorted(set(COMMAND_OPERATIONS[command]) - called) == []
        assert sorted(called & set(COMMAND_OPERATIONS[LIBRARY_ONLY])) == []
