import errno
import gc
import json
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import click.testing
import pytest
import test_coder
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repairopt import cli, lpcore
from repairopt.cli import main
from repairopt.flowgraph import build_flow_graph, enumerate_cut_constraints
from repairopt.netmodel import TOPOLOGIES, build_topology, format_rational


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


TANDEM = ("--topology", "tandem", "--n", "4", "--k", "2", "--M", "4",
          "--alpha", "2", "--failed", "4")


def test_cli_import_loads_every_traced_layer():
    """The benchmark's tracer wraps the modules in its LAYERS as they stand
    in sys.modules; the package root loads none of them, so they must be
    loaded by importing the CLI, which the benchmark does first."""
    script = ("import sys; sys.path[:0] = ['perfbench', 'src']; import tracer, repairopt.cli; "
              "print(*[m for m in tracer.LAYERS if 'repairopt.' + m not in sys.modules])")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            cwd=Path(__file__).resolve().parent.parent, check=True)
    assert result.stdout.split() == []


class TestTopologyGen:
    def test_generates_document(self):
        result = run("topology", "gen", *TANDEM)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["n"] == 4 and doc["cost"][2][3] == "1"

    def test_roundtrip_through_file(self, tmp_path):
        gen = run("topology", "gen", *TANDEM, "--out", str(tmp_path))
        assert gen.exit_code == 0
        path = tmp_path / "network.json"
        assert path.exists()
        solved = run("solve", "--spec", str(path))
        assert solved.exit_code == 0
        assert json.loads(solved.output)["value"] == "4"

    def test_missing_parameters(self):
        result = run("topology", "gen", "--topology", "tandem")
        assert result.exit_code == 2


class TestConstraints:
    def test_reduced_and_raw(self):
        reduced = json.loads(run("constraints", *TANDEM).output)
        raw = json.loads(run("constraints", *TANDEM, "--raw").output)
        assert len(reduced["L"]) == 2
        assert len(raw["L"]) == 3
        assert reduced["b"] == ["2", "2"]

    def test_json_shape(self):
        """Edges print as pairs, and each row of L has its rhs in b as a
        "p/q" string."""
        halves = ("--topology", "tandem", "--n", "4", "--k", "2", "--M", "5",
                  "--alpha", "5/2", "--failed", "4")
        doc = json.loads(run("constraints", *halves).output)
        assert doc["edge_index"] == [[1, 2], [2, 3], [3, 4]]
        assert len(doc["L"]) == len(doc["b"]) == 2
        assert doc["b"] == ["5/2", "5/2"]


# strings weighted toward what JSON must escape: quotes, backslashes,
# control characters, and characters beyond ASCII
TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                         st.characters()))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
                    st.fractions(), st.floats(), TEXT)
KEYS = st.one_of(TEXT, st.integers(), st.booleans(), st.none(), st.floats())
PAYLOADS = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple), st.lists(st.one_of(st.integers(), st.booleans())),
    st.dictionaries(TEXT, inner), st.dictionaries(KEYS, inner)), max_leaves=30)


def star_n12_constraints():
    """The payload of `constraints --raw` on star n12 k5 with the centre failed."""
    spec = build_topology("star", 12, k=5, M=10, alpha=2, center=1, failed=1)
    cs = enumerate_cut_constraints(build_flow_graph(spec), reduce=False)
    return {"edge_index": cs.edge_index, "L": cs.rows, "b": cs.rhs}


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(PAYLOADS)
    @example(star_n12_constraints())
    @example({'say "hi"\n': [1, True, 0, False, -2**70], "\u00e9\x01": {}, "": [], "t": ()})
    @example([Fraction(-7, 3), Fraction(4), None, [[]], {"a": {"b": (1, 2)}}])
    @example({1: [2, 3], "x": {None: Fraction(1, 2), True: 1.5, 2.5: "y"}})
    # rows of 0s and 1s, and lists that look like them but are not
    @example({"L": [(0, 1), (1, True)], "M": [[False, 0], [1, 1]]})
    @example([(0, 1, 1), (1, 2, 0)])
    @example([[1, 0], [-1, 0]])
    @example([(1, 0), (), [0, 1]])
    @example([(0, 1), [1, 1], (1, 0)])
    @example({"b": [Fraction(1, 2), 3, Fraction(-4)], "c": [Fraction(5, 3), True]})
    def test_same_text_as_json_dumps(self, payload):
        assert cli._json(payload) == json.dumps(payload, indent=2, default=format_rational)


class TestOutputStreams:
    def test_invocations_free_their_output(self):
        """Each in-process invocation's captured stdout is freed after it:
        none of the command's writes keeps its stream alive."""
        def alive():
            gc.collect()
            return sum(isinstance(obj, click.testing._NamedTextIOWrapper)
                       for obj in gc.get_objects())

        before = alive()
        runner = CliRunner()
        for _ in range(50):
            assert runner.invoke(main, ["constraints", *TANDEM]).exit_code == 0
        assert alive() - before <= 5

    def test_success_leaves_no_traceback(self):
        """A successful run returns where click would raise SystemExit(0),
        so the caller keeps no traceback; a failing run still exits with
        its code."""
        runner = CliRunner()
        ok = runner.invoke(main, ["constraints", *TANDEM])
        assert ok.exit_code == 0 and ok.exc_info is None
        bad = runner.invoke(main, ["verify", *TANDEM, "--z", "0,0,0"])
        assert bad.exit_code == 1 and bad.exc_info[0] is SystemExit
        usage = runner.invoke(main, ["solve", "--topology", "tandem"])
        assert usage.exit_code == 2


    def test_closed_stdout_is_not_a_usage_error(self, monkeypatch):
        """A write to a closed stdout is left to click's main, which exits 1
        without a usage message."""
        def closed(*args, **kwargs):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(cli, "print", closed, raising=False)
        result = run("solve", *TANDEM)
        assert result.exit_code == 1 and "Usage" not in result.output


class TestSolve:
    def test_json_payload(self):
        doc = json.loads(run("solve", *TANDEM).output)
        assert doc["status"] == "optimal"
        assert doc["value"] == "4"
        assert doc["z"]["2->3"] == "2"

    def test_json_keys(self):
        doc = json.loads(run("solve", *TANDEM).output)
        assert list(doc) == ["status", "value", "z", "dual", "pivots"]

    def test_csv_format(self):
        result = run("solve", *TANDEM, "--format", "csv")
        assert result.output.strip().splitlines() == ["status,value",
                                                      "optimal,4"]


class TestBounds:
    def test_csv_row(self):
        result = run("bounds", *TANDEM)
        header, row = result.output.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["lp"] == "4"
        assert cells["baseline"] == "6"
        assert cells["closed_form"] == "4"
        assert cells["gain_computed"] == "3/2"
        assert cells["gain_paper"] == "5/2"


class TestVerify:
    def test_feasible_point(self):
        result = run("verify", *TANDEM, "--z", "0,2,2")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["feasible"] and doc["cost"] == "4"

    def test_infeasible_point_exits_nonzero(self):
        result = run("verify", *TANDEM, "--z", "0,0,0")
        assert result.exit_code == 1

    def test_malformed_z(self):
        result = run("verify", *TANDEM, "--z", "0,inf,2")
        assert result.exit_code == 2


class TestCodeAndSimulate:
    def test_code_report(self):
        result = run("code", *TANDEM, "--seed", "5")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["rcp_ok"] is True
        assert doc["achieved_cost"] == "4"
        assert doc["q"] == 73

    def test_seed_env_fallback(self):
        with_flag = run("code", *TANDEM, "--seed", "9")
        with_env = run("code", *TANDEM, env={"REPAIROPT_SEED": "9"})
        assert json.loads(with_flag.output) == json.loads(with_env.output)

    @pytest.mark.parametrize("command", [
        ("code", *TANDEM), ("simulate", *TANDEM, "--stages", "2"),
        ("exact-repair", "--n", "6", "--k", "3", "--q", "7", "-t", "3")])
    def test_malformed_seed_env_is_a_usage_error(self, command):
        result = run(*command, env={"REPAIROPT_SEED": "abc"})
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "Error:" in result.output and "Traceback" not in result.output

    def test_empty_seed_env_means_seed_0(self):
        empty = run("code", *TANDEM, env={"REPAIROPT_SEED": ""})
        assert empty.exit_code == 0 and json.loads(empty.output)["seed"] == 0
        assert empty.output == run("code", *TANDEM, "--seed", "0").output

    def test_seed_flag_wins_over_env(self):
        result = run("code", *TANDEM, "--seed", "9", env={"REPAIROPT_SEED": "4"})
        assert json.loads(result.output)["seed"] == 9
        assert result.output == run("code", *TANDEM, "--seed", "9").output

    @pytest.mark.parametrize("command", ["code", "simulate"])
    def test_runaway_code_refused_up_front(self, command):
        """At M = 100000 each of tandem n4's nodes stores 50000 vectors of
        length 100000; the work budget stops the any-k check before it
        starts."""
        start = time.perf_counter()
        result = run(command, "--topology", "tandem", "--n", "4", "--k", "2", "--M", "100000")
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert "C(4, 2) = 6 subsets" in result.output
        assert "50000 subfragments each of a file of 100000" in result.output

    def test_simulate(self):
        result = run("simulate", *TANDEM, "--stages", "3", "--seed", "1")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert list(doc) == ["seed", "stages"]
        assert len(doc["stages"]) == 3
        assert all(s["rcp_ok"] for s in doc["stages"])

    def test_simulate_names_skipped_positions(self, tmp_path):
        """A document without `kind` is a custom topology, which cannot be
        re-derived for another failure: simulate repairs only node 4 and
        says why it skipped nodes 1-3."""
        doc = json.loads(run("topology", "gen", *TANDEM).output)
        del doc["kind"], doc["params"]
        path = tmp_path / "network.json"
        path.write_text(json.dumps(doc))
        result = run("simulate", "--spec", str(path), "--stages", "4", "--seed", "1")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert list(doc) == ["seed", "stages", "skipped"]
        assert {s["failed"] for s in doc["stages"]} == {4}
        reason = "cannot re-derive a custom topology for a new failure"
        assert doc["skipped"] == {"1": reason, "2": reason, "3": reason}

    def test_simulate_skips_a_position_without_an_lp_optimum(self):
        """On grid 2x3 at k = d = 4, node 6's LP is infeasible: code repairs
        nodes 1-5, and simulate draws its stages from them."""
        flags = ("--topology", "grid", "--n", "6", "--rows", "2", "--cols", "3", "--k", "4",
                 "--d", "4", "--M", "8", "--alpha", "2", "--failed", "1")
        result = run("simulate", *flags, "--stages", "4", "--seed", "1")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert list(doc) == ["seed", "stages", "skipped"]
        assert 6 not in {s["failed"] for s in doc["stages"]}
        assert doc["skipped"] == {"6": "LP did not solve: infeasible"}

    def test_simulate_plans_own_failure_with_the_documents_helpers(self, tmp_path):
        """A tandem document whose helpers were edited to 3 and 4 still reads
        as a tandem; its own failure, node 5, is planned from those helpers
        and only node 4, which the default helpers cannot reach, is skipped."""
        doc = json.loads(run("topology", "gen", "--topology", "tandem", "--n", "5", "--k", "2",
                             "--M", "4", "--d", "2", "--failed", "5").output)
        doc["helpers"] = [3, 4]
        path = tmp_path / "network.json"
        path.write_text(json.dumps(doc))
        spec = ("--spec", str(path))
        code = run("code", *spec)
        assert code.exit_code == 0 and json.loads(code.output)["lp_value"] == "4"
        result = run("simulate", *spec, "--stages", "6", "--seed", "1")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["skipped"] == {"4": "no helper can reach the new node"}
        assert 5 in {s["failed"] for s in doc["stages"]}


class TestExactRepair:
    def test_transcript(self):
        result = run("exact-repair", "--n", "6", "--k", "3", "--q", "7",
                     "-t", "3", "--seed", "2")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["exact"] is True
        assert doc["hop_count"] == 3

    def test_invalid_field(self):
        result = run("exact-repair", "--n", "6", "--k", "3", "--q", "6",
                     "-t", "3")
        assert result.exit_code == 2

    @pytest.mark.parametrize("given, split", [
        (("--k1", "2"), (2, 1)), (("--k2", "2"), (1, 2)), (("--k1", "0"), (0, 3))])
    def test_lone_side_takes_k_minus_the_other(self, given, split):
        result = run("exact-repair", "--n", "6", "--k", "3", "--q", "7", "-t", "3", *given)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert (doc["k1"], doc["k2"], doc["exact"]) == (*split, True)

    def test_impossible_lone_side_is_a_usage_error(self):
        result = run("exact-repair", "--n", "6", "--k", "3", "--q", "7", "-t", "3",
                     "--k1", "4")
        assert result.exit_code == 2 and "need k1 + k2 = k = 3" in result.output

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_needs_a_helper(self, k):
        """A repair from no helpers is refused, with the network commands'
        wording, before any split is made."""
        result = run("exact-repair", "--n", "10", "--k", k, "--q", "11", "-t", "5")
        assert result.exit_code == 2
        assert f"need k >= 1, got k={k}" in result.output
        assert "k1 + k2" not in result.output

    def test_huge_prime_field(self):
        result = run("exact-repair", "--n", "5", "--k", "3", "--q", "1000000000000000003",
                     "-t", "3")
        assert result.exit_code == 0 and json.loads(result.output)["exact"] is True
        past = run("exact-repair", "--n", "5", "--k", "3", "--q", str(10**25), "-t", "3")
        assert past.exit_code == 2 and "cannot decide" in past.output


class TestFixtures:
    def test_table_passes(self):
        result = run("fixtures")
        assert result.exit_code == 0
        assert "FAIL" not in result.output

    def test_json_format(self):
        result = run("fixtures", "--format", "json")
        rows = json.loads(result.output)
        by_name = {r["name"]: r for r in rows}
        assert by_name["grid-2x3"]["lp"] == "20/3"
        assert by_name["grid-2x3"]["published"] == "7"
        assert all(r["ok"] for r in rows)


# inline flags of networks whose spec documents must behave like them
NETS = {
    "tandem": TANDEM,
    "star": ("--topology", "star", "--n", "6", "--k", "3", "--M", "6", "--alpha", "2",
             "--center", "2", "--failed", "1"),
    "grid": ("--topology", "grid", "--n", "6", "--k", "3", "--M", "6", "--alpha", "2",
             "--rows", "2", "--cols", "3", "--failed", "6"),
}


class TestSpecRoundTrip:
    # every command that takes the network options, with its other options
    COMMANDS = (("topology", "gen"), ("constraints",), ("constraints", "--raw"),
                ("solve",), ("solve", "--format", "csv"), ("bounds",),
                ("code", "--seed", "3"), ("simulate", "--stages", "6", "--seed", "2"))

    @pytest.mark.parametrize("net", sorted(NETS))
    def test_every_command_matches_inline(self, net, tmp_path):
        assert run("topology", "gen", *NETS[net], "--out", str(tmp_path)).exit_code == 0
        spec = ("--spec", str(tmp_path / "network.json"))
        z = json.loads(run("solve", *NETS[net]).output)["z"].values()
        runs = [(command, 0) for command in self.COMMANDS]
        runs += [(("verify", "--z", ",".join(z)), 0),               # the optimum
                 (("verify", "--z", ",".join("0" for _ in z)), 1)]  # nothing sent
        for command, code in runs:
            inline = run(*command, *NETS[net])
            assert inline.exit_code == code, command
            through = run(*command, *spec)
            assert (through.exit_code, through.output) == (code, inline.output), command

    def test_hand_added_link_is_not_a_tandem(self, tmp_path):
        doc = json.loads(run("topology", "gen", *TANDEM).output)
        doc["cost"][0][3] = "1"        # a direct link 1 -> 4
        path = tmp_path / "network.json"
        path.write_text(json.dumps(doc))
        result = run("bounds", "--spec", str(path))
        assert result.exit_code == 0
        header, row = result.output.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["topology"] == "custom"
        assert cells["closed_form"] == "" and cells["gain_paper"] == ""
        assert cells["baseline"] == "4"

    @pytest.mark.parametrize("change", ["cost", "helpers", "string helpers", "list", "alpha",
                                        "bool"])
    def test_malformed_document_is_a_usage_error(self, change, tmp_path):
        doc = json.loads(run("topology", "gen", *TANDEM).output)
        doc = {"cost": dict(doc, cost=5), "helpers": dict(doc, helpers=None),
               "string helpers": dict(doc, helpers="123"),
               "list": [doc], "alpha": dict(doc, alpha="inf"),
               "bool": dict(doc, alpha=True)}[change]
        path = tmp_path / "network.json"
        path.write_text(json.dumps(doc))
        result = run("solve", "--spec", str(path))
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "Error:" in result.output


class TestSimulateHelpers:
    def test_stages_plan_with_d_helpers(self):
        flags = ("--topology", "complete", "--n", "5", "--k", "2", "--d", "3",
                 "--M", "4", "--alpha", "2")
        doc = json.loads(run("simulate", *flags, "--stages", "6", "--seed", "3").output)
        for stage in doc["stages"]:
            solved = run("solve", *flags, "--failed", str(stage["failed"]))
            assert stage["lp_value"] == json.loads(solved.output)["value"]


class TestCleanErrors:
    BIG = ("--topology", "complete", "--n", "13", "--k", "3", "--M", "6", "--alpha", "2")

    def usage_error(self, result, message):
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.output

    @pytest.mark.parametrize("command", ["constraints", "solve", "bounds", "code", "simulate"])
    def test_enumeration_cap(self, command):
        self.usage_error(run(command, *self.BIG), "cut enumeration is exponential")

    @staticmethod
    def starved_spec(tmp_path) -> str:
        path = tmp_path / "network.json"
        path.write_text(json.dumps(test_coder.STARVED_DOC))
        return str(path)

    def test_bounds_of_infeasible_lp(self, tmp_path):
        self.usage_error(run("bounds", "--spec", self.starved_spec(tmp_path)),
                         "LP did not solve: infeasible")

    @pytest.mark.parametrize("network", ["alpha 1", "alpha 3", "starved"])
    def test_refusals_agree_across_commands(self, network, tmp_path):
        """bounds, code and simulate refuse a network off the minimum-storage
        point, or one without an LP optimum, with one usage error."""
        if network == "starved":
            flags = ("--spec", self.starved_spec(tmp_path))
        else:
            flags = ("--topology", "tandem", "--n", "4", "--k", "2", "--M", "4",
                     "--alpha", network.split()[1])
        errors = set()
        for command in ("bounds", "code", "simulate"):
            result = run(command, *flags)
            assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
            assert f"{command} failed" not in result.stderr
            errors |= {line for line in result.stderr.splitlines() if line.startswith("Error:")}
        assert len(errors) == 1, errors

    @pytest.mark.parametrize("flags", [("--failed", "2"), ("--failed", "2", "--n", "9"),
                                       ("--topology", "tandem"), ("--alpha", "2"),
                                       ("--center", "1"), ("--rows", "2", "--cols", "2")])
    def test_spec_takes_no_inline_options(self, flags, tmp_path):
        """A --spec document is the whole network: an inline option beside
        it is refused, not ignored."""
        assert run("topology", "gen", *TANDEM, "--out", str(tmp_path)).exit_code == 0
        spec = ("--spec", str(tmp_path / "network.json"))
        assert run("solve", *spec).exit_code == 0
        self.usage_error(run("solve", *spec, *flags),
                         "--spec cannot be combined with inline network options")

    @pytest.mark.parametrize("flags, message", [
        (("--M", "inf"), "alpha and M must be finite"),
        (("--M", "4", "--k", "0"), "need k >= 1"),
        (("--M", "1000000"), "code too large to check"),
        # the budget refuses this code before its field bound, past 10^26,
        # reaches a prime search that could not decide primality there
        (("--M", "10000000000000000000000000"), "code too large to check")])
    @pytest.mark.parametrize("command", ["code", "simulate"])
    def test_spec_and_field_escapes(self, command, flags, message):
        tandem = ("--topology", "tandem", "--n", "4", "--k", "2")
        self.usage_error(run(command, *tandem, *flags), message)

    def test_failed_dual_audit(self, monkeypatch):
        """An optimum whose certificate fails the run-time audit is an
        LPError, so `solve` refuses it instead of printing it."""
        monkeypatch.setattr(lpcore, "verify_dual", lambda cs, costs, sol: False)
        self.usage_error(run("solve", *TANDEM),
                         "the optimum failed its dual certificate audit")

    def test_failed_primal_audit(self, monkeypatch):
        """An optimum whose z* is not the optimal point (here zeroed, so no
        cut is met) fails the primal audit, though its dual certificate
        holds."""
        solution = lpcore.LPSolution

        def zeroed(status, value, z_star, dual, pivots):
            return solution(status, value, tuple(0 * v for v in z_star), dual, pivots)

        monkeypatch.setattr(lpcore, "LPSolution", zeroed)
        self.usage_error(run("solve", *TANDEM), "the optimum failed its primal audit")

    @pytest.mark.parametrize("cell", ["5", "inf"])
    def test_spec_diagonal_must_be_zero(self, cell, tmp_path):
        """A --spec document whose diagonal is not 0 is refused, not read
        as 0."""
        doc = json.loads(run("topology", "gen", *TANDEM).output)
        doc["cost"][0][0] = cell
        path = tmp_path / "network.json"
        path.write_text(json.dumps(doc))
        self.usage_error(run("solve", "--spec", str(path)), "diagonal entries must be 0")

    @pytest.mark.parametrize("command", [("code", "--retries", "0"),
                                         ("simulate", "--stages", "0"),
                                         ("simulate", "--retries", "0")])
    def test_zero_counts(self, command):
        result = run(*command, *TANDEM)
        assert result.exit_code == 2 and "x>=1" in result.output

    @pytest.mark.parametrize("below", ["", "below"])
    def test_out_is_not_a_directory(self, below, tmp_path):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / below
        result = run("topology", "gen", *TANDEM, "--out", str(out))
        assert result.exit_code == 2 and "Error: [Errno" in result.output

    @pytest.mark.parametrize("command", ["code", "simulate"])
    def test_coder_failure_names_the_command(self, command, monkeypatch):
        test_coder.TestRetryContract.fail_after(monkeypatch, 0, 2)
        result = run(command, *TANDEM, "--retries", "2")
        assert result.exit_code == 1
        assert result.stderr.startswith(f"{command} failed: no valid initial code in 2 attempts")


NETWORK_COMMANDS = (("topology", "gen"), ("constraints",), ("solve",), ("bounds",),
                    ("code",), ("simulate",), ("verify",))
# mostly valid values, so that some runs get past the input checks
SIZE = st.sampled_from(["1", "2", "3", "4", "5", "6", "0", "-1"])
NODES = st.sampled_from(["4", "5", "6", "3", "2"])
NUMBER = st.sampled_from(["2", "4", "6", "1", "5/2", "0", "-1", "inf", "1/0", "abc"])
COUNT = st.sampled_from(["1", "2", "0"])
OUT = st.sampled_from(["dir", "file", "file/below"])  # under the test's directory
SPEC = st.sampled_from(["network.json", "file", "missing.json"])  # under it too
INLINE = ("--topology", "--n", "--k", "--d", "--alpha", "--M", "--failed", "--center",
          "--rows", "--cols")


@st.composite
def argvs(draw):
    """The argv of a network command or of exact-repair: the options that
    say which network or line, and verify's --z and simulate's --stages,
    always; each other one present or not; at sizes too small for any
    command to do real work. A network command may instead take --spec,
    with each inline network option present or not."""
    command = draw(st.sampled_from(NETWORK_COMMANDS + (("exact-repair",),)))
    if command == ("exact-repair",):
        required = {"--n": NODES, "--k": SIZE, "--failed": SIZE,
                    "--q": st.sampled_from(["2", "6", "7", "11"])}
        optional = {"--k1": SIZE, "--k2": SIZE, "--seed": SIZE, "--out": OUT}
    else:
        required = {"--topology": st.sampled_from(TOPOLOGIES), "--n": NODES, "--k": SIZE,
                    "--M": NUMBER}
        optional = {"--d": SIZE, "--alpha": NUMBER, "--failed": SIZE, "--center": SIZE,
                    "--rows": SIZE, "--cols": SIZE}
        if draw(st.booleans()):
            required, optional = {"--spec": SPEC}, {**required, **optional}
        if command in (("code",), ("simulate",)):
            optional.update({"--seed": SIZE, "--retries": COUNT})
        if command == ("simulate",):
            required["--stages"] = COUNT
        if command == ("verify",):
            required["--z"] = st.lists(NUMBER, max_size=4).map(",".join)
        else:
            optional["--out"] = OUT
    argv = list(command)
    for name, values in required.items():
        argv += [name, draw(values)]
    for name, values in optional.items():
        if draw(st.booleans()):
            argv += [name, draw(values)]
    return argv


@pytest.fixture(scope="module")
def out_root():
    """One directory for every run of the fuzz test; "file" in it is a file
    and "network.json" a spec document."""
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "file").write_text("")
        (Path(root) / "network.json").write_text(run("topology", "gen", *TANDEM).output)
        yield Path(root)


TANDEM_INLINE = ["--topology", "tandem", "--n", "4", "--k", "2"]


class TestFuzz:
    # the deadline is far above what any of these runs costs (under 0.3 s),
    # so only a run that all but fails to end exceeds it
    @settings(max_examples=300, deadline=5000,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=argvs())
    @example(argv=["solve", *TANDEM_INLINE, "--M", "inf"])
    @example(argv=["topology", "gen", *TANDEM_INLINE, "--M", "inf"])
    @example(argv=["constraints", "--topology", "tandem", "--n", "4", "--k", "0", "--M", "4"])
    @example(argv=["verify", "--topology", "tandem", "--n", "4", "--k", "0", "--M", "4",
                   "--z", "1,1,1"])
    @example(argv=["code", *TANDEM_INLINE, "--M", "1000000"])
    @example(argv=["simulate", *TANDEM_INLINE, "--M", "1000000"])
    @example(argv=["topology", "gen", *TANDEM_INLINE, "--M", "4", "--out", "file"])
    @example(argv=["bounds", *TANDEM_INLINE, "--M", "4", "--out", "file/below"])
    @example(argv=["exact-repair", "--n", "5", "--k", "3", "--q", "1000000000000000003",
                   "--failed", "3"])
    @example(argv=["exact-repair", "--n", "6", "--k", "3", "--q", "7", "--failed", "3",
                   "--k1", "2"])
    @example(argv=["solve", "--spec", "network.json", "--failed", "2", "--n", "9"])
    @example(argv=["simulate", "--spec", "network.json", "--stages", "2"])
    def test_every_run_exits_cleanly(self, argv, out_root):
        """Every run ends in exit 0, 1 or 2 and raises nothing but SystemExit,
        a --spec beside an inline network option exits 2, and exact-repair
        reports the split it was given."""
        argv = [str(out_root / a) if flag in ("--out", "--spec") else a
                for flag, a in zip([None, *argv], argv)]
        result = run(*argv)
        assert result.exit_code in (0, 1, 2), (argv, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            (argv, result.exception)
        if "--spec" in argv and any(flag in INLINE for flag in argv):
            assert result.exit_code == 2 and "Error:" in result.output, argv
        if argv[0] == "exact-repair" and result.exit_code == 0:
            out = result.output
            doc = json.loads(Path(out.strip()).read_text() if "--out" in argv else out)
            for side in ("k1", "k2"):
                if f"--{side}" in argv:
                    assert doc[side] == int(argv[argv.index(f"--{side}") + 1]), argv
