"""Golden outputs: sha256 of CLI stdout plus the exit code, per invocation,
and of the coefficients a seeded repair produces.

The digests pin seeded reproducibility (`code`, `simulate`, `regenerate`,
`exact-repair`), the spec documents, the cut constraints (integer and
"p/q" right-hand sides, reduced and raw, up to a 330-row raw set),
`verify` with integer and fractional schedules, `solve` in JSON and CSV,
the fixture tables, the `bounds` rows, the help text
and the report file `code --out` writes byte for byte. A
change in the order in which the coder draws its random coefficients, or in
how options are declared, shows up here even when every answer stays
correct: the CLI reports show only attempt counts, so the coefficient
digests catch a reordering that keeps the number of draws. The
`exact-repair` digests cover every relay symbol, so they pin the helper
coefficients and the stored symbols too. On the star and complete
networks several relays are ready at once, so their `simulate` digests pin
the order in which a repair visits the nodes.

To re-record after an intended output change, print `observed(...)`,
`code_out_digest(...)` and `repaired_digest(...)` for every case and paste
the results over the tables.
"""

import hashlib
import json
import random

import pytest
from click.testing import CliRunner

from repairopt.cli import main
from repairopt.coder import code_field, init_code, make_plan, regenerate
from repairopt.fixtures import FIXTURES, fixture_spec
from repairopt.netmodel import spec_to_json

TANDEM = ("--topology", "tandem", "--n", "4", "--k", "2", "--M", "4", "--alpha", "2",
          "--failed", "4")
# a fractional alpha: every cut's rhs M - alpha * c prints as a "p/q" string
TANDEM_HALF = ("--topology", "tandem", "--n", "4", "--k", "2", "--M", "5", "--alpha", "5/2",
               "--failed", "4")

# argv per case; "@name" stands for the path of fixture `name` written by
# spec_to_json
CASES = {
    **{f"code-{name}-seed{seed}": ("code", "--spec", f"@{name}", "--seed", str(seed))
       for name in sorted(FIXTURES) for seed in (0, 7)},
    "simulate-grid-2x3-k3-seed1": (
        "simulate", "--topology", "grid", "--n", "6", "--k", "3", "--M", "6",
        "--alpha", "2", "--rows", "2", "--cols", "3", "--failed", "6",
        "--stages", "10", "--seed", "1"),
    "simulate-star-n6-k3-seed3": (
        "simulate", "--topology", "star", "--n", "6", "--k", "3", "--M", "6",
        "--center", "2", "--failed", "1", "--stages", "8", "--seed", "3"),
    "simulate-complete-n6-k3-seed3": (
        "simulate", "--topology", "complete", "--n", "6", "--k", "3", "--M", "6",
        "--stages", "8", "--seed", "3"),
    "bounds-tandem-n4-failed1": (
        "bounds", "--topology", "tandem", "--n", "4", "--k", "2", "--M", "4",
        "--failed", "1"),
    "bounds-star-n6": (
        "bounds", "--topology", "star", "--n", "6", "--k", "3", "--M", "6",
        "--center", "2", "--failed", "1"),
    "bounds-tandem-n4-failed2": (
        "bounds", "--topology", "tandem", "--n", "4", "--k", "2", "--M", "4",
        "--failed", "2"),
    "bounds-star-n6-centre": (
        "bounds", "--topology", "star", "--n", "6", "--k", "3", "--M", "6",
        "--center", "2", "--failed", "2"),
    "topology-gen-tandem-n4": ("topology", "gen", *TANDEM),
    "topology-gen-star-n6": (
        "topology", "gen", "--topology", "star", "--n", "6", "--k", "3", "--M", "6",
        "--center", "2", "--failed", "1"),
    "topology-gen-grid-2x3": (
        "topology", "gen", "--topology", "grid", "--n", "6", "--k", "4", "--M", "8",
        "--alpha", "2", "--rows", "2", "--cols", "3", "--failed", "6"),
    "constraints-grid-2x3": ("constraints", "--spec", "@grid-2x3"),
    "constraints-raw-grid-2x3": ("constraints", "--spec", "@grid-2x3", "--raw"),
    "constraints-tandem-n4-M5": ("constraints", *TANDEM_HALF),
    "constraints-raw-tandem-n4-M5": ("constraints", *TANDEM_HALF, "--raw"),
    "constraints-raw-star-n12-k5": (
        "constraints", "--topology", "star", "--n", "12", "--k", "5", "--M", "10",
        "--alpha", "2", "--center", "1", "--failed", "1", "--raw"),
    "verify-tandem-n4-feasible": ("verify", *TANDEM, "--z", "0,2,2"),
    "verify-tandem-n4-infeasible": ("verify", *TANDEM, "--z", "0,0,0"),
    "verify-tandem-n4-M5-feasible": ("verify", *TANDEM_HALF, "--z", "1/3,5/2,8/3"),
    "verify-tandem-n4-M5-infeasible": ("verify", *TANDEM_HALF, "--z", "1/2,5/2,7/3"),
    "solve-json-grid-2x3": ("solve", "--spec", "@grid-2x3"),
    "solve-csv-grid-2x3": ("solve", "--spec", "@grid-2x3", "--format", "csv"),
    "code-tandem-n4-env-seed9": ("code", *TANDEM),
    "fixtures-text": ("fixtures",),
    "fixtures-csv": ("fixtures", "--format", "csv"),
    "fixtures-json": ("fixtures", "--format", "json"),
    "solve-help": ("solve", "--help"),
    **{f"exact-repair-n200-k40-t{t}": (
        "exact-repair", "--n", "200", "--k", "40", "--q", "211", "--failed", str(t),
        "--seed", "3") for t in (1, 2, 100, 199, 200)},
    "exact-repair-n200-k40-t100-split13-27": (
        "exact-repair", "--n", "200", "--k", "40", "--q", "211", "--failed", "100",
        "--k1", "13", "--k2", "27", "--seed", "4"),
    "exact-repair-n6-k3-t4": (
        "exact-repair", "--n", "6", "--k", "3", "--q", "7", "--failed", "4", "--seed", "5"),
}

DIGESTS = {
    "bounds-star-n6": ("157cc825d58cbb4e5e29f236ba9f47ddc2a0f4a039e29abba17d0c12cd6a95a0", 0),
    "bounds-star-n6-centre": ("86a08accf36f300c5030facf7103a549a6ab1e802610763df6304ac0cc5c72c2", 0),
    "bounds-tandem-n4-failed1": ("e3151f3dfd0ace86e80e09948400051e5d1296e0b3895595515a4c32c848f50f", 0),
    "bounds-tandem-n4-failed2": ("5e865228d081acb6c70d0226ecf0722332bc6370b900d04aa5a6caac326bd585", 0),
    "code-complete-n5-cost3-seed0": ("efaec4b6832561276be9cee162833c73a95650bce36fc8a28205c803e91b7692", 0),
    "code-complete-n5-cost3-seed7": ("9e7d7d01bf11cc8b1c1e27ec88df296c24dbd4be4c331e97209a1da7a60d7933", 0),
    "code-complete-n5-unit-seed0": ("717b6ec72fb9064e11f572b4c2a40739311875b0c97f9c66c3e972fdec76ddcd", 0),
    "code-complete-n5-unit-seed7": ("ad914f9821e55150bac146872e6f539c0233f0db2fa8c8c190093852935baaf8", 0),
    "code-grid-2x3-seed0": ("af3b3b743c7e3586a31b843e6420e8fc7dbcf045bd0f6126e40bd2d1ad59c8e2", 0),
    "code-grid-2x3-seed7": ("9c14ba3c15546d9e4ae2ce47f5bf71b68a536ba09b4cce114d9989789666b32c", 0),
    "code-star-n6-M9-seed0": ("109c3b2a39df4836e11627c4fb3014d340af7ad78164ce430b45bd51498c9fe1", 0),
    "code-star-n6-M9-seed7": ("30c77986e98bac757dea0930b26589411f1eca39a9e31b6b81c1f967de42fbd1", 0),
    "code-star-n6-seed0": ("e38c4e06784f730cf2422f0a3d5e48af9c2f10446f75751f432097cee9ae806b", 0),
    "code-star-n6-seed7": ("b51cd765ba933c64f0199ab144b9ca84439d4ffe86372ded64fbd3c6927e9963", 0),
    "code-tandem-n4-env-seed9": ("47dfa0238c78e9a8b4c2879dfe440fa82490f13854467f6e64f62437bcf34412", 0),
    "code-tandem-n4-seed0": ("a483e68aee4e664aeaabc755388c7a7c3bd02fcc3bdba8a1f73a17744da76ad8", 0),
    "code-tandem-n4-seed7": ("c0c73182870ef926d6a7e5b4eea959551c2975b3c4a5812878c6f6b38cc000b3", 0),
    "constraints-grid-2x3": ("f75860c348c918f80a46cd27741d232596df8eaa37d4a666ea7023f5a44c040e", 0),
    "constraints-raw-grid-2x3": ("9d902fae91cf5e594a107fbfe3f8b092a9c88f73b706d6a233c7de3537caca5e", 0),
    "constraints-raw-star-n12-k5": ("ee62e2d182f480fbec0123c266e14c07940239f8950ede82fb4c47824148f8ba", 0),
    "constraints-raw-tandem-n4-M5": ("8a88180f62c5712ea8db6231d4a1ae87f9a75522d5a8e83be64c68f62a957dbd", 0),
    "constraints-tandem-n4-M5": ("f964836d68ba3bbcc6a183aa5674a6eeb3f7d66df2674ee80728c7fd2402147c", 0),
    "exact-repair-n200-k40-t1": ("e106509384a74d7ce659876f407c3d6b45e6944ffb8539d7ab0c6e62443841bf", 0),
    "exact-repair-n200-k40-t100": ("97311abe31d868afb6c41c5c546b7b58bcb9a63636c5124ebf47e4b5230aaf54", 0),
    "exact-repair-n200-k40-t100-split13-27": ("84d13c647cbc0574e1b050edbaa809badf2834b8d5c1eba27c34d183f0fb62d7", 0),
    "exact-repair-n200-k40-t199": ("6f0b96b9d52be6577ae0965a2c425e1f8f4e1c24bed089e09e7fd216d059fc98", 0),
    "exact-repair-n200-k40-t2": ("6801b1937e0648420868879d44f9d597fb4eff72a620d08ad74d0da69a8f28d2", 0),
    "exact-repair-n200-k40-t200": ("3277b8837dc532829fafd376ecc7dad016acdb03bd35a815523b3defe2bec69e", 0),
    "exact-repair-n6-k3-t4": ("4660d0a9c9b568028043f023f7c2bbee62f4ef9019e8d10a3542df0e36e6de76", 0),
    "fixtures-csv": ("0d511ba1740bf112c2e364ba56a741dac74464eb005bdd55000232335c68999e", 0),
    "fixtures-json": ("e897ff95771e48ead8463948486e5856228c3364a8d3df234428f7c24af9e734", 0),
    "fixtures-text": ("cd03ad6d45ff1549b4204e19a4812c71086b974ca95edffbbbc19255036c2cd1", 0),
    "simulate-complete-n6-k3-seed3": ("a7d0ef7905749d25da83468a4d1818673216dbd5b034b024833361fd45094410", 0),
    "simulate-grid-2x3-k3-seed1": ("e92f92470c62c433fb005fba36e7442e1d26bc6cacb0a6671bf00917bf98ae9d", 0),
    "simulate-star-n6-k3-seed3": ("07129ed731db345563486ef7b82b6894030045d75af573d8e5c0b16272b5dfee", 0),
    "solve-csv-grid-2x3": ("a6eadb0b68733d37a2e782fb7215b627bdfb58f437328d5cdbedbb3f49b5ecef", 0),
    "solve-help": ("aea02a3c25eea5834c33f220c06c2e689a648b9fdc2dae34179932e55bd096e6", 0),
    "solve-json-grid-2x3": ("5fc1dae72d2c749c000e16fe79b796fbb02d34d827d067ff3227c849a694da15", 0),
    "topology-gen-grid-2x3": ("1002f356437910ee9e83391c812d1b30923084eebd546b49be423d8dba3c84ff", 0),
    "topology-gen-star-n6": ("b48abdae0d9252a52171a4b84e72fe4268afb5e894fa463acad31f818bf55f17", 0),
    "topology-gen-tandem-n4": ("c46848c166c655bb0fe868ea422cb79cad93788cc815e511901bd02415a836e2", 0),
    "verify-tandem-n4-M5-feasible": ("e3f6359e407bd606389f0718e1f8b87e867a0858b1cb067cde022a4de5f5ed25", 0),
    "verify-tandem-n4-M5-infeasible": ("91664b371956d8bad261002deab7384452c88d2b41d790c7055c9928588d8de0", 1),
    "verify-tandem-n4-feasible": ("6fc83a53dc1bc6705ab9ffa238adaa337151a6be36ddbde09f530dd205a3140d", 0),
    "verify-tandem-n4-infeasible": ("3e26434179fb479228600cfc072de09e29961eab93b86e878a7d1fc3ff353678", 1),
}


# the environment of a case, beyond a cleared REPAIROPT_SEED
ENV = {"code-tandem-n4-env-seed9": {"REPAIROPT_SEED": "9"}}


def observed(case, tmp_path) -> tuple[str, int]:
    args = []
    for arg in CASES[case]:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(spec_to_json(fixture_spec(arg[1:]))))
            arg = str(path)
        args.append(arg)
    result = CliRunner().invoke(main, args, env={"REPAIROPT_SEED": None, **ENV.get(case, {})})
    return hashlib.sha256(result.stdout.encode()).hexdigest(), result.exit_code


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_and_exit_code_unchanged(case, tmp_path):
    assert observed(case, tmp_path) == DIGESTS[case]


# the report file holds exactly the stdout of code-tandem-n4-seed7
CODE_OUT = "c0c73182870ef926d6a7e5b4eea959551c2975b3c4a5812878c6f6b38cc000b3"


def code_out_digest(tmp_path) -> str:
    """The digest of the report `code --out DIR` writes; stdout names the file."""
    result = CliRunner().invoke(main, ["code", *TANDEM, "--seed", "7", "--out", str(tmp_path)],
                                env={"REPAIROPT_SEED": None})
    path = tmp_path / "code-report.json"
    assert (result.exit_code, result.stdout) == (0, f"{path}\n")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_code_out_file_unchanged(tmp_path):
    assert code_out_digest(tmp_path) == CODE_OUT


# fixture -> repaired code state after init_code and regenerate at seed 7
REPAIRED = {
    "complete-n5-cost3": "940da32911c34333eea9e26dc907201352358e3101203b04b1d55bb8f537257b",
    "complete-n5-unit": "e911910c7ed7eb7d0be41f0051bb929c921b40979213267779f5755bf4b4d7af",
    "grid-2x3": "0b7ee51d077e009b65bc555b0fb0a9eb90c72e2b35a4ffc30273973c59206702",
    "star-n6": "9cbf78947f6e6cbf1b034ce63380050d8fc16b33cf2b27d499995f50bb64663e",
    "star-n6-M9": "7568e21ded16ea756c4517df48503c1f43a301edeb2e74efd782bf5d240b22fc",
    "tandem-n4": "1cbca28bab3ed333c27a627d7c22981b6644122a1aac5d8ae36677f5be35a6d9",
}


def repaired_digest(name) -> str:
    spec = fixture_spec(name)
    plan = make_plan(spec)
    _, q = code_field(spec.n, spec.k, int(spec.M * plan.scale), plan.n_nc)
    state, _ = init_code(spec, q, rng=random.Random(7), scale=plan.scale)
    repaired, _ = regenerate(state, plan, rng=random.Random(7))
    return hashlib.sha256(repr(repaired.columns).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_repaired_coefficients_unchanged(name):
    assert repaired_digest(name) == REPAIRED[name]
