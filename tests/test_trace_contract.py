"""The benchmark's tracer finds every function it times, and its checks pass.

``bench/spans.py`` wraps the functions named in its ``LAYERS`` by looking up
each ``ratefn.<module>`` in ``sys.modules`` once the benchmark has imported
``ratefn`` and ``ratefn.cli``, so those two imports must load every one of
those modules eagerly: ``ratefn`` the numerical ones, and the command line
the serializers. The benchmark's operations also check what the library
returns, for example the records that iterating a dataset yields, so one
round of each in-process workload must run without a failed operation. The
checks run in a fresh interpreter, where no other test has imported anything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import json, sys
import ratefn
from spans import LAYERS, Tracer
package = [name for name in LAYERS if "ratefn." + name in sys.modules]
import ratefn.cli
loaded = [name for name in LAYERS if "ratefn." + name in sys.modules]
names = [(module, fn) for module, fns in LAYERS.items() for fn in fns]
missing = [f"{module}.{fn}" for module, fn in names
           if not callable(getattr(sys.modules["ratefn." + module], fn, None))]
originals = {name: getattr(sys.modules["ratefn." + name[0]], name[1]) for name in names}
tracer = Tracer("probe")
tracer.install()
unwrapped = [f"{module}.{fn}" for (module, fn), original in originals.items()
             if getattr(sys.modules["ratefn." + module], fn) is original]
tracer.uninstall()
restored = all(getattr(sys.modules["ratefn." + m], f) is original for (m, f), original in originals.items())
print(json.dumps({"package": package, "loaded": loaded, "missing": missing, "unwrapped": unwrapped,
                  "restored": restored}))
"""


_ROUND = """
import json, sys
from pathlib import Path
import workloads
workload = workloads.WORKLOADS[sys.argv[1]](0, Path(sys.argv[2]))
workload.prepare_checks()
records = workloads.run_rounds(workload, 1)
workload.close()
print(json.dumps({"ops": len(records), "errors": [(r.name, r.error) for r in records if r.error]}))
"""


def _probe(code: str, *args: str) -> dict:
    """The JSON object that ``code`` prints last, run with ``src`` and ``bench`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_every_traced_module_and_function():
    report = _probe(_PROBE)
    assert report["package"] == ["loss_data", "cumulant", "rate", "analysis", "oracle"]
    assert report["loaded"] == ["loss_data", "cumulant", "rate", "analysis", "oracle", "serialize", "cli"]
    assert report["missing"] == []
    assert report["unwrapped"] == []
    assert report["restored"]


def _assert_one_round_passes(workload: str, workdir: Path) -> None:
    report = _probe(_ROUND, workload, str(workdir))
    assert report["ops"] > 0
    assert report["errors"] == []


def test_one_small_many_round_passes_its_checks(tmp_path):
    _assert_one_round_passes("small_many", tmp_path)


def test_one_solve_1e5_round_passes_its_checks(tmp_path):
    # Its set-up builds the 1e5-loss expand_to_dataset expansion that its operations solve on.
    _assert_one_round_passes("solve_1e5", tmp_path)


def test_one_oracle_mc_round_passes_its_checks(tmp_path):
    # It times expand_to_dataset and checks the expanded counts.
    _assert_one_round_passes("oracle_mc", tmp_path)
