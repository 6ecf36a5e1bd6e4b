"""Command-line front end: plan, solve, code, verify, report.

Every run is reproducible from its inputs and the recorded seed; outputs
are JSON (machine), CSV, or aligned text, with rationals serialized as
"p/q" strings and missing links as "inf".
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import click

from . import bounds as bounds_mod
from . import coder, exacttandem, fixtures
from .flowgraph import build_flow_graph, check_feasible, enumerate_cut_constraints, repair_cuts
from .lpcore import solve_min_cost
from .netmodel import (
    TOPOLOGIES,
    build_topology,
    format_rational,
    parse_rational,
    spec_from_json,
    spec_to_json,
)


def _load_spec(spec_path, topology, n, k, d, alpha, m, failed, center, rows, cols):
    """The spec the network options describe: a --spec document alone, or
    an inline --topology with its sizes."""
    if spec_path:
        if any(v is not None for v in (topology, n, k, d, alpha, m, failed, center, rows, cols)):
            raise click.UsageError("--spec cannot be combined with inline network options")
        return spec_from_json(json.loads(Path(spec_path).read_text()))
    if topology is None:
        raise click.UsageError("provide --spec PATH or --topology KIND")
    if n is None or k is None or m is None:
        raise click.UsageError("--topology needs --n, --k and --M")
    return build_topology(topology, n, k=k, M=m, alpha=alpha, d=d, failed=failed,
                          center=center, rows=rows, cols=cols)


def _json(payload) -> str:
    """The JSON text of every report, with each Fraction as a "p/q" string:
    the text of json.dumps(payload, indent=2, default=format_rational)."""
    return _encode(payload, "\n")


def _encode(value, newline: str) -> str:
    """The JSON text of value at the nesting level whose line break and
    indent is newline.

    json.dumps encodes in pure Python when it indents; this writes the
    same text directly. It tests types in json's order (a bool is not an
    int, a Fraction reaches `default`) and joins in one step a list of
    plain ints, a list of Fractions, and a list of rows whose entries are
    all the plain ints 0 and 1 (the cut rows). It hands anything else
    (floats, other objects, dicts with keys that are not strings) to
    json.dumps, whose text at level 0 only needs the deeper line breaks."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        types = set(map(type, value))
        if types == {int}:
            items = map(int.__repr__, value)
        elif types == {Fraction}:
            items = ['"' + format_rational(x) + '"' for x in value]
        else:
            items = _bit_rows(value, inner) if types <= {list, tuple} else None
            if items is None:
                items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + _encode(item, inner)
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, Fraction):
        return encode_basestring_ascii(format_rational(value))
    return json.dumps(value, indent=2, default=format_rational).replace("\n", newline)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bit_rows(rows, newline: str) -> list[str] | None:
    """The JSON texts of rows whose entries are all the ints 0 and 1 (not
    bools, which json writes as words), at the nesting level whose line
    break and indent is newline; None for any other rows. Each row is
    written as its bytes turned into digits, with the separator between
    every two digits."""
    if set(map(type, chain.from_iterable(rows))) != {int}:
        return None
    try:
        blobs = list(map(bytes, rows))
    except ValueError:  # an entry below 0 or above 255
        return None
    if b"".join(blobs).translate(None, b"\0\1"):
        return None
    inner = newline + "  "
    sep = "," + inner
    return ["[" + inner + sep.join(blob.translate(_DIGITS).decode()) + newline + "]"
            if blob else "[]" for blob in blobs]


def _emit(text: str, out: str | None, filename: str):
    """Print text, or write it to out/filename and print the file's path."""
    if out:
        target = Path(out)
        target.mkdir(parents=True, exist_ok=True)
        path = target / filename
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text + "\n")
        tmp.replace(path)
        print(path, flush=True)
    else:
        print(text, flush=True)


def spec_options(fn):
    """Add the network options to a command and pass it the spec they
    describe as `spec`."""
    keys = inspect.signature(_load_spec).parameters

    @functools.wraps(fn)
    def command(**kwargs):
        spec = _load_spec(**{key: kwargs.pop(key) for key in keys})
        return fn(spec, **kwargs)

    decorators = [
        click.option("--spec", "spec_path", type=click.Path(), help="Network-spec JSON file."),
        click.option("--topology", type=click.Choice(TOPOLOGIES)),
        click.option("--n", type=int),
        click.option("--k", type=int),
        click.option("--d", type=int),
        click.option("--alpha", type=str),
        click.option("--M", "m", type=str),
        click.option("--failed", type=int),
        click.option("--center", type=int, help="Star center node."),
        click.option("--rows", type=int),
        click.option("--cols", type=int),
    ]
    for dec in reversed(decorators):
        command = dec(command)
    return command


class _Command(click.Command):
    """A command whose package errors end without a traceback.

    A ValueError is the package's word for input it cannot use, and an
    OSError one for a path it cannot read or write: either is a usage
    error, exit 2. A coder that gives up (RetryExhaustedError, raised
    only when every random draw failed the any-k check) prints
    "<command> failed: <message>" and exits 1. Any other exception is a
    bug and keeps its traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise                  # a closed stdout, which click's main handles
        except (ValueError, OSError) as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except coder.RetryExhaustedError as exc:
            print(f"{ctx.info_name} failed: {exc}", file=sys.stderr)
            sys.exit(1)


class _Main(click.Group):
    command_class = _Command
    group_class = type             # subgroups (`topology`) are _Main too

    def main(self, *args, **kwargs):
        """Run the command line; return normally where click would raise
        SystemExit(0).

        A caller that runs commands in its own process (click's CliRunner
        does) then keeps no traceback of a successful run: that traceback
        and the caller's frame holding it form a reference cycle, which
        keeps the run's captured output alive until a full collection. A
        nonzero exit still raises SystemExit."""
        try:
            return super().main(*args, **kwargs)
        except SystemExit as exc:
            if exc.code:
                raise


@click.group(cls=_Main)
def main():
    """Minimum-cost repair planning for networked storage."""


@main.group()
def topology():
    """Topology utilities."""


@topology.command("gen")
@spec_options
@click.option("--out", type=click.Path(), help="Directory for the generated file.")
def topology_gen(spec, out):
    """Generate a network-spec JSON document."""
    _emit(_json(spec_to_json(spec)), out, "network.json")


@main.command()
@spec_options
@click.option("--raw", is_flag=True, help="Skip constraint reduction.")
@click.option("--out", type=click.Path())
def constraints(spec, raw, out):
    """Enumerate the cut-set constraints of the repair LP."""
    cs = enumerate_cut_constraints(build_flow_graph(spec), reduce=not raw)
    _emit(_json({"edge_index": cs.edge_index, "L": cs.rows, "b": cs.rhs}), out,
          "constraints.json")


@main.command()
@spec_options
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", type=click.Path())
def solve(spec, fmt, out):
    """Solve the minimum-cost repair LP exactly."""
    cs, costs = repair_cuts(spec)
    sol = solve_min_cost(cs, costs)
    if fmt == "json":
        text = _json({
            "status": sol.status,
            "value": sol.value,
            "z": {f"{i}->{j}": v for (i, j), v in zip(cs.edge_index, sol.z_star)},
            "dual": sol.dual,
            "pivots": sol.pivots,
        })
    else:
        text = f"status,value\n{sol.status},{format_rational(sol.value)}"
    _emit(text, out, f"solution.{fmt}")


@main.command("bounds")
@spec_options
@click.option("--out", type=click.Path())
def bounds_cmd(spec, out):
    """Compare the LP optimum to baselines and closed-form bounds (CSV)."""
    report = bounds_mod.compare_lp_to_bounds(spec)
    header = "topology,n,k,M,alpha,lp,closed_form,baseline,gain_paper,gain_computed"
    row = ",".join([
        spec.kind, str(spec.n), str(spec.k), format_rational(spec.M),
        format_rational(spec.alpha), format_rational(report.sigma_opt),
        "" if report.closed_form_value is None else format_rational(report.closed_form_value),
        format_rational(report.sigma_non_opt),
        "" if report.paper_gain is None else format_rational(report.paper_gain),
        format_rational(report.g_c),
    ])
    _emit(header + "\n" + row, out, "bounds.csv")


@main.command()
@spec_options
@click.option("--seed", type=int, default=0, envvar="REPAIROPT_SEED")
@click.option("--retries", "-R", type=click.IntRange(min=1), default=coder.DEFAULT_RETRIES)
@click.option("--out", type=click.Path())
def code(spec, seed, retries, out):
    """Construct and verify a code achieving the LP-optimal repair cost."""
    report = coder.run_repair(spec, seed, retries=retries)
    _emit(_json(report), out, "code-report.json")


@main.command()
@spec_options
@click.option("--stages", "-T", type=click.IntRange(min=1), default=10)
@click.option("--seed", type=int, default=0, envvar="REPAIROPT_SEED")
@click.option("--retries", "-R", type=click.IntRange(min=1), default=coder.DEFAULT_RETRIES)
@click.option("--out", type=click.Path())
def simulate(spec, stages, seed, retries, out):
    """Run repeated failure/repair stages and verify the code each time."""
    reports, skipped = coder.simulate_stages(spec, stages, seed, retries=retries)
    payload = {"seed": seed, "stages": reports}
    if skipped:
        payload["skipped"] = {str(node): reason for node, reason in skipped.items()}
    _emit(_json(payload), out, "simulation.json")


@main.command("exact-repair")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--failed", "-t", type=int, required=True)
@click.option("--k1", type=int)
@click.option("--k2", type=int)
@click.option("--seed", type=int, default=0, envvar="REPAIROPT_SEED")
@click.option("--out", type=click.Path())
def exact_repair_cmd(n, k, q, failed, k1, k2, seed, out):
    """Exact line-network repair with the explicit Vandermonde code."""
    code_obj = exacttandem.init_vandermonde(n, k, q, seed=seed)
    if k1 is None and k2 is None:
        k1, k2 = exacttandem.default_split(failed, n, k)
    elif k1 is None or k2 is None:        # the other side takes the rest
        k1, k2 = (k - k2, k2) if k1 is None else (k1, k - k1)
    transcript = exacttandem.exact_repair(code_obj, failed, k1, k2)
    payload = {
        "n": n, "k": k, "q": q, "failed": failed, "k1": k1, "k2": k2,
        "seed": seed,
        "message": list(code_obj.message),
        "hops": [{"from": a, "to": b, "symbol": s} for a, b, s in transcript.hops],
        "restored": transcript.restored,
        "expected": transcript.expected,
        "exact": transcript.exact,
        "hop_count": transcript.hop_count,
    }
    _emit(_json(payload), out, "exact-repair.json")
    if not transcript.exact:
        sys.exit(1)


@main.command()
@spec_options
@click.option("--z", "z_text", required=True,
              help="Comma-separated fragment counts, matching the edge order.")
def verify(spec, z_text):
    """Check a user-supplied subgraph against the cut constraints."""
    cs, costs = repair_cuts(spec)
    z = [parse_rational(part) for part in z_text.split(",")]
    if any(v is None for v in z):
        raise ValueError("z entries must be finite")
    feasible = check_feasible(cs, z)
    cost = sum(c * v for c, v in zip(costs, z))
    edges = [f"{i}->{j}" for (i, j) in cs.edge_index]
    print(_json({"feasible": feasible, "cost": cost, "edge_index": edges}), flush=True)
    if not feasible:
        sys.exit(1)


@main.command("fixtures")
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text")
def fixtures_cmd(fmt):
    """Run the built-in fixture suite and print a pass/fail table."""
    records = fixtures.run_fixture_suite()
    if fmt == "json":
        print(_json(records), flush=True)
    else:
        columns = ("lp", "expected", "published", "baseline", "gain")
        table = [["fixture", *columns, "status"]]
        table += [[r["name"], *(format_rational(r[c]) for c in columns),
                   "PASS" if r["ok"] else "FAIL"] for r in records]
        sep, widths = ("  ", (18, 8, 8, 10, 8, 8, 6)) if fmt == "text" else (",", (0,) * 7)
        lines = [sep.join(c.ljust(w) for c, w in zip(cells, widths)) for cells in table]
        print(*lines, sep="\n", flush=True)
    if not all(r["ok"] for r in records):
        sys.exit(1)


if __name__ == "__main__":
    main()
