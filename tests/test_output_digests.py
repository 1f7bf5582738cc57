"""Byte-identity guard: every subcommand's output on small fixed inputs.

Each case runs one ``ratefn`` subcommand in-process on the fixture files in
``tests/data``, or on small files written into a temporary directory, and
hashes both the ``--output`` file and the stdout summary (with the temporary
directory replaced by ``<tmp>``). The recorded SHA-256 digests pin every
output byte, so a refactor that moves any digit fails here.

When an output is meant to change, print the new digests with
``PYTHONPATH=src python tests/test_output_digests.py`` and update ``DIGESTS``
in the same change, saying why.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from conftest import strict_json
from ratefn.cli import run

DATA = Path(__file__).parent / "data"
A, B = str(DATA / "a.csv"), str(DATA / "b.csv")
GROUPED, GRADS, LAW = str(DATA / "grouped.csv"), str(DATA / "grads.jsonl"), str(DATA / "law.json")
META = ["--p", "10", "--n", "1000", "--delta", "0.05"]

# Files written into the working directory; "{tmp}" in an argv names it.
INPUTS = {
    # Two finite losses whose sum lies beyond the float64 range, in one group.
    "overflow-group.csv": "sample_id,loss,group_id\ns0,1.7e308,g0\ns1,1.7e308,g0\ns2,0.5,g1\ns3,0.5,g1\n",
    # Two gradient vectors whose sum lies beyond the float64 range in both components.
    "overflow-grads.jsonl": "".join('{"sample_id": "%s", "loss": 0.5, "grad_theta": %s}\n' % row for row in (
        ("a", "[1.7e308, 1.7e308]"), ("b", "[1.7e308, 1.7e308]"), ("c", "[-1.0, -1.0]"))),
}

# name -> (argv without --output, output file name)
CASES = {
    "cumulant-json": (["cumulant", "--input", A], "out.json"),
    "cumulant-csv": (["cumulant", "--input", A, "--format", "csv", "--grid", "0.01:100:16:log"], "out.csv"),
    "cumulant-jsonl-input": (["cumulant", "--input", GRADS, "--grid", "0.1:10:9:linear"], "out.json"),
    "rate-json": (["rate", "--input", A, "--a", "0.2"], "out.json"),
    "rate-csv": (["rate", "--input", A, "--a", "0.2", "--format", "csv"], "out.csv"),
    "rate-grid-json": (["rate", "--input", A, "--a-grid", "0.1:1.5:8:linear"], "out.json"),
    "rate-grid-csv": (["rate", "--input", A, "--a-grid", "0.1:1.5:8:linear", "--format", "csv"], "out.csv"),
    "inverse-rate-json": (["inverse-rate", "--input", A, "--s", "0.05"], "out.json"),
    "inverse-rate-csv": (["inverse-rate", "--input", A, "--s", "0.05", "--format", "csv"], "out.csv"),
    "inverse-rate-many-json": (["inverse-rate", "--input", A, "--s", "0.01", "--s", "0.1", "--s", "50"], "out.json"),
    "inverse-rate-many-csv": (
        ["inverse-rate", "--input", A, "--s", "0.01", "--s", "0.1", "--s", "50", "--format", "csv"], "out.csv"),
    "grid-inverse-rate-json": (["grid-inverse-rate", "--input", A, "--s", "0.05"], "out.json"),
    "grid-inverse-rate-csv": (
        ["grid-inverse-rate", "--input", A, "--s", "0.05", "--grid", "0.1:10:7:log", "--format", "csv"], "out.csv"),
    "bound": (["bound", "--input", A, *META], "out.json"),
    "bound-train-loss": (["bound", "--input", B, *META, "--train-loss", "0.1"], "out.json"),
    "compare": (["compare", "--input-a", A, "--input-b", B], "out.json"),
    "compare-beta": (["compare", "--input-a", B, "--input-b", A, "--a-grid", "0.05:0.4:6:linear",
                      "--beta", "0.2"], "out.json"),
    "interpolator-check": (["interpolator-check", "--input-a", A, "--input-b", B, "--train-loss-a", "0",
                            *META, "--epsilon", "0.01"], "out.json"),
    "augment-csv": (["augment", "--input", GROUPED], "out.csv"),
    "augment-jsonl": (["augment", "--input", GRADS, "--format", "jsonl"], "out.jsonl"),
    "augment-group-overflow": (["augment", "--input", "{tmp}/overflow-group.csv"], "out.csv"),
    "da-check-json": (["da-check", "--input", GROUPED], "out.json"),
    "da-check-group-overflow": (["da-check", "--input", "{tmp}/overflow-group.csv"], "out.json"),
    "da-check-csv": (["da-check", "--input", GRADS, "--format", "csv", "--grid", "0.1:10:9:log"], "out.csv"),
    "taylor-j": (["taylor", "--input", A, "--mode", "j", "--x", "0.5"], "out.json"),
    "taylor-rate": (["taylor", "--input", A, "--mode", "rate", "--x", "0.1"], "out.json"),
    "taylor-inverse-rate": (["taylor", "--input", B, "--mode", "inverse-rate", "--x", "0.05"], "out.json"),
    "taylor-covariance": (["taylor", "--input", GRADS, "--mode", "covariance", "--x", "0.5",
                           "--theta-delta", "0.1,-0.2,0.3", "--s-budget", "0.05"], "out.json"),
    "taylor-covariance-grad-overflow": (["taylor", "--input", "{tmp}/overflow-grads.jsonl", "--mode", "covariance",
                                         "--x", "1", "--theta-delta", "1,-1", "--s-budget", "0.1"], "out.json"),
    "grad-bound": (["grad-bound", "--input", GROUPED, "--m-const", "2", "--s", "0.1", "--lambda", "0.5"], "out.json"),
    "grad-bound-jsonl": (["grad-bound", "--input", GRADS, "--m-const", "0.5", "--s", "0.01"], "out.json"),
    "oracle-exact-json": (["oracle-exact", "--dist", LAW, "--lambda", "0.5", "--a", "0.3"], "out.json"),
    "oracle-exact-csv": (["oracle-exact", "--dist", LAW, "--a", "0.3", "--format", "csv"], "out.csv"),
    "simulate-cramer-json": (["simulate-cramer", "--dist", LAW, "--n", "80", "--a", "0.2",
                              "--trials", "3000", "--seed", "7"], "out.json"),
    "simulate-cramer-csv": (["simulate-cramer", "--dist", LAW, "--n", "80", "--a", "0.2",
                             "--trials", "3000", "--seed", "7", "--format", "csv"], "out.csv"),
    "simulate-cramer-tilted-json": (["simulate-cramer", "--dist", LAW, "--n", "80", "--a", "0.6",
                                     "--trials", "3000", "--seed", "7", "--method", "tilted"], "out.json"),
    "simulate-cramer-tilted-csv": (["simulate-cramer", "--dist", LAW, "--n", "80", "--a", "0.6",
                                    "--trials", "3000", "--seed", "7", "--method", "tilted", "--format", "csv"],
                                   "out.csv"),
    "bias-probe-json": (["bias-probe", "--dist", LAW, "--n", "1200", "--lambda", "1.0",
                         "--replicates", "60", "--seed", "3"], "out.json"),
    "bias-probe-csv": (["bias-probe", "--dist", LAW, "--n", "1200", "--lambda", "1.0",
                        "--replicates", "60", "--seed", "3", "--format", "csv"], "out.csv"),
}

# name -> (sha256 of the --output file, sha256 of stdout)
DIGESTS = {
    "cumulant-json": (
        "dafbfff23b8f168b0ec41c79e82b9c324639d3bd9dea8875dbd5d9d03c2979ec",
        "1228a76d47c0d112bc4fa3029b285a14e0ea9f16f376f6871194064c983f1a7b",
    ),
    "cumulant-csv": (
        "8712ba575b4e869ea2ec2a1b114967a79eef94a27ddb66ead3bc88fbf8e4f75d",
        "93a0ebe498950ea994914d7afe48c9e2a48fab169ec4c58a7c3c19f493938eec",
    ),
    "cumulant-jsonl-input": (
        "1b6f033df3003500cb3054415105fc0730d2d6afbf42f6cee84fe01fc73e8d33",
        "459ee9150bff6a30ce690b5f5caa387201a3dfdbe30f1f480d222e5f1580650c",
    ),
    "rate-json": (
        "cb560c9fdc81e810eee30b440a088a5cd323fb7c677192e369922e5fbffa4415",
        "b0f246b812eaae936a01157e8ae4565dcb59d88c05602e3c03db1e82aab026b5",
    ),
    "rate-csv": (
        "77db64e8efaceeb3991feed5479f9140eed773dfcf3fe33a2184973fc222c03d",
        "b0f246b812eaae936a01157e8ae4565dcb59d88c05602e3c03db1e82aab026b5",
    ),
    "rate-grid-json": (
        "ef11a853862401574f1f5294505eaf4d907d60fbe94c3189f783b895ac8b27e9",
        "789288fe947df17d2a6bd014674cb628bf6a6d35d569883e03368d20cbe0402d",
    ),
    "rate-grid-csv": (
        "f7609f2a517b87b0339ebf91834eaecfc4a1689cf10a22b9f81bb4dbc0341c99",
        "789288fe947df17d2a6bd014674cb628bf6a6d35d569883e03368d20cbe0402d",
    ),
    "inverse-rate-json": (
        "0dba43393be1becdaf807b6dfde625d4e7fe17a6eb98214b5b6f217a682ad968",
        "59826f4ff952a2d59f6fbdaa82a2df1ad2ee149c6133bbc08e7d80f320529529",
    ),
    "inverse-rate-csv": (
        "dcb0ae37256eca50e6c008a6286f5f9d0781ba4df72cf23c588bef76dcd5b58b",
        "59826f4ff952a2d59f6fbdaa82a2df1ad2ee149c6133bbc08e7d80f320529529",
    ),
    "inverse-rate-many-json": (
        "fced567027135d1e7d82afcbac328acbfe65a1232843e77ff604cd36371bf865",
        "fa0740c9655a9a90d2590c4231745ab0f5d9991961e86df18bfe44aff593fc20",
    ),
    "inverse-rate-many-csv": (
        "463b38a285fc980e9918b4c80624747e597f17827fe975d36c7297a27d296af6",
        "fa0740c9655a9a90d2590c4231745ab0f5d9991961e86df18bfe44aff593fc20",
    ),
    "grid-inverse-rate-json": (
        "12a9bed96844cfea6ff778266a5fefda46ea725357fcd1b83c3d46e6880c9190",
        "5172a2176855b4de75609ed3d0446b8fcbcdfefd7f038190463fe580b915d3ee",
    ),
    "grid-inverse-rate-csv": (
        "03809a337f87de4de5c9309321e190ccc99d2617fa17252d48df95b0da32e331",
        "9d561c938a1f34813eb3518460c916a1615b6dc9e520faf8d18ad26f70c27c22",
    ),
    "bound": (
        "f3097ce6c8ecebc07f89880e08783edb9b32934ed9d4bb1e293c91ed7bb85541",
        "632c8d2b1fab02634be47e3b7486ba508e8e2eec90924a7b42ac7aaa1e1c1c8e",
    ),
    "bound-train-loss": (
        "ca5f5a0427916a5a943f090c7ef6ed57bae786e0fa8d92a95458649c6c74b4fe",
        "b40da11354afcbdc6fbc7a14780b8974e94b7fb3249dd23f369f55a1596c7a4f",
    ),
    "compare": (
        "b18680bd9a8e6f3daf06a32899ef32f799958134b433cf985353da81feec630e",
        "b1a7538215410a5afc308d29a471ebdef87de7db7d3b88e1b92662aefcf065f3",
    ),
    "compare-beta": (
        "14d886c2084df9991a4a936f5a1e13c0412ce18d3427f9a0303c954b5b966664",
        "a38a26b21fea02af7f382aa7be91e6a8b811327c80e98bcdf9cd96485809a003",
    ),
    "interpolator-check": (
        "ffd8ea2b2f708c189b39bd1a6c9b7afca4ca8ab1fcf7412cb9c022e17b93f8a9",
        "f25afdfd397f2b868d5d0b8cb57610a8909799dcd132448acdde53c73a487647",
    ),
    "augment-csv": (
        "adea88960e816c9a505af1471ed9ecc9f4589f8b0504f1889ad076c8b5cd31a2",
        "a1aae8fafaa3c718081579b492be365f1aec71d1c5c2bafb005cb709a2273cf9",
    ),
    "augment-jsonl": (
        "ac82a7025f74b6005132262d9b8af68b2a65df1599fef82f415cfda7a73e5885",
        "405763119b415f152f816d3f288c5839a2d4f515cf50f119122d82e254145ca5",
    ),
    "augment-group-overflow": (
        "4e57cfa4e47ee5a4024179db46289ee11451dd5850915fd5b7e6dc0d62fca6e1",
        "18fb202d1bcbb79de49025b7defe61781b5a22a4b9a7b98f9ab9f60e8f84d500",
    ),
    "da-check-json": (
        "955a3b90b70c4691f12b5738c557f3ab464f341ce03a7a2381590efdf89f3cbb",
        "debd4d3aa91443608cc3e21f7bc251382a8d35398354f2126749e6ef793dc252",
    ),
    "da-check-group-overflow": (
        "86a61e1395a83e6f8c7e0ebdf60e4d445e875e3e96a050b2416c612c57cc54c9",
        "80c747f7c83375c42da4bc10da72c133d0e7b4ebfea5d0802a3b909e059221d0",
    ),
    "da-check-csv": (
        "e1ebb3676a0d4b50ea9ea4d4ff1c154c703775f286afd5b17d646abaf398994e",
        "428d6a3aba0bfa8956a9b3a2ba81a5738137a73d53f974dc3d223c5801031eff",
    ),
    "taylor-j": (
        "981d63a3d91cbe2e2821f76e040390942da309d84c82d1f171ecbbe45dad1117",
        "252c12fcc052405d07c4a3414b8fa9ad48656d42440ae68791765c51805586d8",
    ),
    "taylor-rate": (
        "628399b8227164b06bdbc2199ca1fd22928954f1d45e51ee4a6da5081f0c1487",
        "1d0216b465ea704a1dd3da0f699b93530bad175bf710d902337f2f136d25d242",
    ),
    "taylor-inverse-rate": (
        "35a82d0ac0df50478003c8dfc5a2ac6732a6ffc7180d0e356fa7b96d443213f2",
        "cd2afd5de60fb0827ec7c30534f4fe02ad9651f9d891e3eb53c19e0147a96891",
    ),
    "taylor-covariance": (
        "a3bd516d874498ed2baf58469c6f902d154f2d5ceed774fa067f65aaa1aae208",
        "8e31dac2025b6f75b3a9667f9fee0f26213cadd01d1ab09e2876d830d8036915",
    ),
    "taylor-covariance-grad-overflow": (
        "efc01538e0008220bdb44dd522a19bb8d499c47b6de0ecee574af3c01a9ff914",
        "2eae7645086ccba1fd9ff37deffcf513024dae06528c23dd910fd2ae860676ed",
    ),
    "grad-bound": (
        "283b28be7bba0f698ee7daaccb42eea6b5fbf1ffb267d16c74279cd38c5611e5",
        "5f53a94e802a5e2e777d752131efbdb175008769a15f9fc4a606786a003f33d4",
    ),
    "grad-bound-jsonl": (
        "809c35b49a82b2162430187aa4fd25357a9491db1e07ffb76a49a9838dcd6f72",
        "db380d438ab2ea7550c642aaf7906756af6ac043508b67a0f0fbf00284f3a857",
    ),
    "oracle-exact-json": (
        "7320e2f92aedf4d01f2513de3ce67b22bc0a7bb1aa5163bb29be7c73a988c2ab",
        "fe2ce6d1d9eb67dca85a7b111ee85ae43f33851cad0dd510d8e8f4fc094be92f",
    ),
    "oracle-exact-csv": (
        "ebdde2e1b6a7d0d5c3796a4c0bb4af0ae2c2f441eb155f7593f0328a4043f49e",
        "3ce94124c222f18c3ab278899cdf8f0857655654467cc1fb355dac90a51a4644",
    ),
    "simulate-cramer-json": (
        "49a36fa0578cefc6e93fe47fddfa9c423052c1fa3fee287913a7ebfffd5796d3",
        "ce8a78ae44fc074e8d82bc6b92590cd574426f2a1b327027973e0a779b607dac",
    ),
    "simulate-cramer-csv": (
        "d6893f7407b2ae7fcb41dad7dd952106e2aa78fa14a524e4f061a4bfb00f10a4",
        "ce8a78ae44fc074e8d82bc6b92590cd574426f2a1b327027973e0a779b607dac",
    ),
    "simulate-cramer-tilted-json": (
        "81d7a47bb5be49442433894c1f14584470f8ff561be059bc016a0b0d165a338c",
        "1129da5b1d2ec677ddee5dd447bec3be3e42a007e7a156785431140ad7522e5a",
    ),
    "simulate-cramer-tilted-csv": (
        "99d5b2fe4996b5cf1f4194e8bcc03888a5af9962b77d3ea9c8b40676b940cfba",
        "1129da5b1d2ec677ddee5dd447bec3be3e42a007e7a156785431140ad7522e5a",
    ),
    "bias-probe-json": (
        "6a176bab68bd44686ec46fe9dd0645230b155e94712bdce5e162cb987c219f5c",
        "5b1ef65ca09318483f8bd928d9627d1fb7f08a537a283ba2833d533d0d4b9370",
    ),
    "bias-probe-csv": (
        "2b508f79c98fb4e421d45266a13165f0b50bbb56ead0b653c8f0ef1ebe174d9f",
        "5b1ef65ca09318483f8bd928d9627d1fb7f08a537a283ba2833d533d0d4b9370",
    ),
}


def case_argv(name: str, workdir: Path) -> list[str]:
    """Write the input files into ``workdir``; return the case's argv naming it."""
    for filename, text in INPUTS.items():
        (workdir / filename).write_text(text, encoding="utf-8")
    return [arg.replace("{tmp}", str(workdir)) for arg in CASES[name][0]]


def case_digests(name: str, workdir: Path) -> tuple[str, str]:
    """Run one case in ``workdir``; return the digests of its output file and stdout."""
    out = workdir / CASES[name][1]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run([*case_argv(name, workdir), "--output", str(out)]) == 0
    summary = stdout.getvalue().replace(str(workdir), "<tmp>")
    return hashlib.sha256(out.read_bytes()).hexdigest(), hashlib.sha256(summary.encode()).hexdigest()


def test_every_subcommand_is_covered():
    commands = {argv[0] for argv, _ in CASES.values()}
    assert len(commands) == 14
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, tmp_path):
    assert case_digests(name, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(name for name, (_, out) in CASES.items() if out.endswith((".json", ".jsonl"))))
def test_json_outputs_are_strict(name, tmp_path):
    filename = CASES[name][1]
    out = tmp_path / filename
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([*case_argv(name, tmp_path), "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    for document in text.splitlines() if filename.endswith(".jsonl") else [text]:
        strict_json(document)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            output, summary = case_digests(case, Path(tmp))
            print(f'    "{case}": (\n        "{output}",\n        "{summary}",\n    ),')
