"""The command-line front end: verbs, formats, exit codes."""

import pytest

from morsify.cli import main
from morsify.divide import format_scannable, parse_planar_divide, parse_scannable, scannable
from morsify.link import parse_link_diagram
from morsify.plabic import format_plabic, parse_plabic
from morsify.quiver import parse_quiver

from test_divide import HYPERBOLIC_NODE, TRIANGLE_ARC
from test_plabic import NO_ORIENTATION

P1_DIVIDE = "k 3\nL 2\nE 1 1 2 1\nR 1\n"
# internal vertices a and b leave slot 2 unpaired
UNPAIRED_PLB = (
    "v a b i\nv b w i\nv l1 w d\nv l2 b d\n"
    "edge l1.0 a.0\nedge a.1 b.1\nedge b.0 l2.0\nboundary l1 l2\n"
)
# a 3-leaf star whose boundary order runs against its rotation: genus > 0
TWISTED_STAR_PLB = (
    "v c b i\nv l w d\nv m w d\nv n b d\n"
    "edge c.0 l.0\nedge c.1 m.0\nedge c.2 n.0\nboundary l n m\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def sdv(tmp_path):
    f = tmp_path / "d.sdv"
    f.write_text(P1_DIVIDE)
    return str(f)


@pytest.fixture
def pdv(tmp_path):
    f = tmp_path / "d.pdv"
    f.write_text(TRIANGLE_ARC)
    return str(f)


class TestDivideVerbs:
    def test_braid(self, capsys, sdv):
        code, out, _ = run(capsys, "braid", sdv)
        assert code == 0
        assert out.strip() == "3 : 2 1 1 2 1 1 1 2 1 1"

    def test_validate_ok(self, capsys, sdv):
        code, out, _ = run(capsys, "validate", sdv)
        assert code == 0 and out.strip() == "OK"

    def test_validate_invalid(self, capsys, tmp_path):
        f = tmp_path / "bad.pdv"
        # a node with two dangling slots
        f.write_text("node n\nedge n.0 n.1\nouter n.0\n")
        code, out, _ = run(capsys, "validate", str(f))
        assert code == 0
        assert out.splitlines()[0] == "INVALID"

    def test_regions(self, capsys, sdv):
        code, out, _ = run(capsys, "regions", sdv)
        assert code == 0
        assert "cells:" in out

    def test_lissajous_round_trip(self, capsys):
        code, out, _ = run(capsys, "lissajous", "4", "3", "1")
        assert code == 0
        s = parse_scannable(out)
        assert s.k == 3

    def test_overlay(self, capsys, tmp_path):
        f = tmp_path / "n.sdv"
        f.write_text("k 2\nL \nE 1\nR \n")
        code, out, _ = run(capsys, "overlay", str(f), str(f))
        assert code == 0
        s = parse_scannable(out)
        assert s.k == 4 and len(s.events) == 6

    def test_klein_involution(self, capsys, sdv, tmp_path):
        code, out, _ = run(capsys, "klein", sdv, "flipH")
        f = tmp_path / "r.sdv"
        f.write_text(out)
        code, out2, _ = run(capsys, "klein", str(f), "flipH")
        assert code == 0
        assert parse_scannable(out2) == parse_scannable(P1_DIVIDE)

    def test_yb_list_and_apply(self, capsys, pdv, tmp_path):
        code, out, _ = run(capsys, "yb", pdv)
        assert code == 0 and out.startswith("site 0:")
        code, out, _ = run(capsys, "yb", pdv, "--site", "0")
        assert code == 0
        moved = parse_planar_divide(out)
        f = tmp_path / "moved.pdv"
        f.write_text(out)
        code, out, _ = run(capsys, "validate", str(f))
        assert code == 0 and out.strip() == "OK"
        assert len(moved.nodes) == 3

    def test_yb_site_out_of_range(self, capsys, pdv):
        code, _, err = run(capsys, "yb", pdv, "--site", "99")
        assert code == 1 and "out of range" in err


class TestQuiverVerbs:
    def test_quiver_and_mutate(self, capsys, sdv, tmp_path):
        code, out, _ = run(capsys, "quiver", sdv)
        assert code == 0
        q = parse_quiver(out)
        f = tmp_path / "q.qvr"
        f.write_text(out)
        code, out2, _ = run(capsys, "mutate", str(f), "0", "0")
        assert code == 0
        assert parse_quiver(out2) == q  # mutation is involutive

    def test_quiver_of_invalid_divide(self, capsys, tmp_path):
        # the D5 example of test_divide.py: level 3 never crosses
        f = tmp_path / "d5.sdv"
        f.write_text(format_scannable(scannable(3, (), (1, 1), ())))
        code, out, err = run(capsys, "quiver", str(f))
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: not a valid divide",
            "  D5: the union of branches is disconnected",
        ]

    @pytest.mark.parametrize(
        "text", ["n 2\na 0 0\n", "n 2\nn 3\n", "n -3\n", "n x\n", "n 2\na 0 1 0\n"]
    )
    def test_bad_quiver_file(self, capsys, tmp_path, text):
        f = tmp_path / "bad.qvr"
        f.write_text(text)
        for argv in (["mutate", str(f), "0"], ["mut-equiv", str(f), str(f)]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and err.startswith("error: line ")

    def test_mut_equiv(self, capsys, sdv, tmp_path):
        code, out, _ = run(capsys, "quiver", sdv)
        f = tmp_path / "q.qvr"
        f.write_text(out)
        code, out2, _ = run(capsys, "mutate", str(f), "1")
        g = tmp_path / "q2.qvr"
        g.write_text(out2)
        code, out3, _ = run(capsys, "mut-equiv", str(f), str(g), "--states", "10000")
        assert code == 0 and out3.startswith("EQUIVALENT")

    def test_machine_format(self, capsys, sdv, tmp_path):
        code, out, _ = run(capsys, "quiver", sdv)
        f = tmp_path / "q.qvr"
        f.write_text(out)
        code, out, _ = run(
            capsys, "mut-equiv", str(f), str(f), "--format", "machine"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "RESULT EQUIVALENT"
        assert lines[1].startswith("WITNESS")


class TestPlabicVerbs:
    def test_fence_attach_round_trip(self, capsys, sdv, pdv):
        for verb, src in (("fence", sdv), ("attach", pdv)):
            code, out, _ = run(capsys, verb, src)
            assert code == 0
            p = parse_plabic(out)
            assert p.internal

    def test_moves_and_move_equiv(self, capsys, sdv, tmp_path):
        code, out, _ = run(capsys, "fence", sdv)
        f = tmp_path / "p.plb"
        f.write_text(out)
        code, out2, _ = run(capsys, "moves", str(f))
        assert code == 0 and out2.strip()
        code, out3, _ = run(capsys, "move-equiv", str(f), str(f), "--depth", "0")
        assert code == 0 and out3.startswith("EQUIVALENT")

    def test_orient(self, capsys, sdv, tmp_path):
        code, out, _ = run(capsys, "fence", sdv)
        f = tmp_path / "p.plb"
        f.write_text(out)
        code, out2, _ = run(capsys, "orient", str(f))
        assert code == 0 and out2.startswith("head ")

    def test_orient_none(self, capsys, tmp_path):
        f = tmp_path / "p.plb"
        f.write_text(format_plabic(NO_ORIENTATION))
        code, out, _ = run(capsys, "orient", str(f))
        assert code == 0 and out.strip() == "NONE"

    @pytest.mark.parametrize("verb", ("orient", "plabic-link", "moves", "move-equiv"))
    @pytest.mark.parametrize(
        "text, problem",
        ((UNPAIRED_PLB, "unpaired"), (TWISTED_STAR_PLB, "genus > 0")),
    )
    def test_invalid_graph(self, capsys, tmp_path, verb, text, problem):
        f = tmp_path / "p.plb"
        f.write_text(text)
        calls = [[str(f)]]
        if verb == "move-equiv":
            # the invalid graph goes in either position, next to a valid one
            g = tmp_path / "q.plb"
            g.write_text(format_plabic(NO_ORIENTATION))
            calls = [[str(f), str(g)], [str(g), str(f)]]
        for files in calls:
            code, out, err = run(capsys, verb, *files)
            assert code == 1 and out == ""
            assert err.startswith("error: invalid plabic graph: ") and problem in err

    def test_plabic_link_parses(self, capsys, sdv, tmp_path):
        code, out, _ = run(capsys, "fence", sdv)
        f = tmp_path / "p.plb"
        f.write_text(out)
        code, out2, _ = run(capsys, "plabic-link", str(f))
        assert code == 0
        assert parse_link_diagram(out2).crossings

    def test_plabic_link_unorientable(self, capsys, tmp_path):
        f = tmp_path / "p.plb"
        f.write_text(format_plabic(NO_ORIENTATION))
        code, _, err = run(capsys, "plabic-link", str(f))
        assert code == 1 and "orientation" in err


class TestBraidAndLinkVerbs:
    def test_nf(self, capsys):
        code, out, _ = run(capsys, "nf", "3 : 1 2 1")
        assert code == 0 and out.startswith("D^")

    def test_delta_div(self, capsys):
        code, out, _ = run(capsys, "delta-div", "3 : 1 2 1 1 2 1")
        assert code == 0 and out.strip() == "2"

    def test_isotopy(self, capsys):
        code, out, _ = run(
            capsys, "isotopy", "3 : 1 2 1", "3 : 2 1 2", "--solid-torus"
        )
        assert code == 0 and out.startswith("EQUIVALENT")

    def test_isotopy_distinct_exits_zero(self, capsys):
        code, out, _ = run(capsys, "isotopy", "2 : 1 1 1", "2 : 1 1")
        assert code == 0 and out.startswith("DISTINCT")

    def test_solid_torus_strand_counts_differ(self, capsys):
        code, out, _ = run(capsys, "isotopy", "--solid-torus", "3 : 1 2", "2 : 1")
        assert code == 0
        assert out.strip() == "DISTINCT reason: strand counts differ"

    def test_alex_trefoil(self, capsys):
        code, out, _ = run(capsys, "alex", "2 : 1 1 1")
        assert code == 0
        assert out.strip() == "1*t^0 + -1*t^1 + 1*t^2"

    def test_jones_trefoil(self, capsys):
        code, out, _ = run(capsys, "jones", "2 : 1 1 1")
        assert code == 0
        assert out.strip() == "-1*s^-8 + 1*s^-6 + 1*s^-2"

    def test_fingerprint(self, capsys):
        code, out, _ = run(capsys, "fingerprint", "2 : 1 1", "--jones")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "components: 2"
        assert lines[1].startswith("alexander:")
        assert lines[2].startswith("jones:")

    def test_fingerprint_machine(self, capsys):
        code, out, _ = run(capsys, "fingerprint", "2 : 1 1", "--format", "machine")
        assert code == 0
        assert out.splitlines() == ["RESULT components 2", "ALEXANDER -1*t^0 + 1*t^1"]

    def test_diagram_file_input(self, capsys, tmp_path, sdv):
        code, out, _ = run(capsys, "fence", sdv)
        p = tmp_path / "p.plb"
        p.write_text(out)
        code, out, _ = run(capsys, "plabic-link", str(p))
        d = tmp_path / "d.pd"
        d.write_text(out)
        code, out1, _ = run(capsys, "alex", str(d))
        code, out2, _ = run(capsys, "alex", "3 : 2 1 1 2 1 1 1 2 1 1")
        assert out1 == out2  # the two routes give the same link


class TestErrors:
    def test_usage_error(self, capsys):
        assert run(capsys, "no-such-verb")[0] == 2
        assert run(capsys)[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["nf", "3 : 1 2 1", "--states", "5"],
            ["alex", "2 : 1 1 1", "--seconds", "1"],
            ["braid", "x.sdv", "--format", "machine"],
            ["isotopy", "2 : 1", "2 : 1", "--depth", "1"],
        ],
    )
    def test_flag_on_a_verb_that_does_not_read_it(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "braid", "/no/such/file.sdv")
        assert code == 1 and "error:" in err

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "nf", "not a braid")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "suffix, text, argv",
        [
            (".plb", "v a b i\nedge a.0\n", ["validate"]),
            (".plb", "rot\n", ["validate"]),
            (".pdv", "outer\n", ["validate"]),
            (".sdv", "k\n", ["validate"]),
            (".qvr", "n 2\na 1\n", ["mutate", "0"]),
        ],
    )
    def test_missing_operands(self, capsys, tmp_path, suffix, text, argv):
        f = tmp_path / f"bad{suffix}"
        f.write_text(text)
        code, _, err = run(capsys, argv[0], str(f), *argv[1:])
        assert code == 1 and "error: line" in err

    @pytest.mark.parametrize("verb", ["regions", "quiver"])
    def test_incomplete_boundary(self, capsys, tmp_path, verb):
        f = tmp_path / "bad.pdv"
        f.write_text(HYPERBOLIC_NODE.replace("boundary e1 e2 e3 e4", "boundary e1 e2"))
        code, out, err = run(capsys, verb, str(f))
        assert code == 1 and out == ""
        assert err.strip() == (
            "error: line 11: boundary must list every endpoint exactly once"
        )

    @pytest.mark.parametrize("argv", [["jones"], ["fingerprint", "--jones"]])
    def test_jones_cap(self, capsys, argv):
        word = "3 : " + "1 2 " * 13
        code, _, err = run(capsys, argv[0], word, *argv[1:])
        assert code == 1
        assert err.strip() == "error: 26 crossings exceed the cap of 24"
