import gc
import json

import click.testing
import pytest
from click.testing import CliRunner

from repairopt.cli import main


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


TANDEM = ("--topology", "tandem", "--n", "4", "--k", "2", "--M", "4",
          "--alpha", "2", "--failed", "4")


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

    def test_simulate(self):
        result = run("simulate", *TANDEM, "--stages", "3", "--seed", "1")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert len(doc["stages"]) == 3
        assert all(s["rcp_ok"] for s in doc["stages"])


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

    @pytest.mark.parametrize("change", ["cost", "helpers", "list", "alpha"])
    def test_malformed_document_is_a_usage_error(self, change, tmp_path):
        doc = json.loads(run("topology", "gen", *TANDEM).output)
        doc = {"cost": dict(doc, cost=5), "helpers": dict(doc, helpers=None),
               "list": [doc], "alpha": dict(doc, alpha="inf")}[change]
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

    @pytest.mark.parametrize("command", ["constraints", "solve", "code"])
    def test_enumeration_cap(self, command):
        self.usage_error(run(command, *self.BIG), "cut enumeration is exponential")

    def test_bounds_of_infeasible_lp(self):
        starved = ("--topology", "tandem", "--n", "4", "--k", "2", "--M", "4",
                   "--alpha", "1")
        self.usage_error(run("bounds", *starved), "LP did not solve: infeasible")
