"""The package surface: every exported name resolves, every demo runs,
numpy never loads, not even in verify and myhill, neither dataclasses nor
fractions loads at start-up or with any family, symfun stays off the
streaming paths, the start path loads neither json, numbers, csv, the state
format nor the generators, the names the benchmark wraps resolve and see
their calls, verify and myhill load only on first use and build their
records without dataclasses, eval's memory does not grow with its input,
every source file parses as the oldest Python that pyproject.toml admits,
and the streaming pipeline, verify and myhill run under every other Python
3.10-3.13 that can be started."""

import ast
import builtins
import importlib
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import meanstream as ms

ROOT = Path(__file__).resolve().parent.parent

# one spec per built-in family and branch, with two inputs in its domain
BUILT_IN = [
    ("power", {"p": 1.0}), ("power", {"p": 0.0}),
    ("quasiarithmetic", {"f": "ln"}), ("gini", {"p": 2.0, "q": 1.0}),
    ("gini", {"p": 3.0, "q": 3.0}),
    ("bajraktarevic", {"f": "power:2", "g": "identity"}),
    ("bajraktarevic", {"f": "ln", "g": "one"}), ("hamy", {"r": 3}),
    ("sympoly", {"r": 2}), ("biplanar", {"p": 2.0, "q": 3.0, "c": 3, "d": 3}),
    ("biplanar", {"p": 0.0, "q": 1.0, "c": 1, "d": 2}),
    ("median", {"kind": "lower"}), ("piecewise_h", {}),
    ("cube_over_square", {}),
]

# every SPECS family through the state operations, then the CLI's eval,
# merge (of five files, so that merge_tree carries) and classify, an eval
# with a flag its family does not take, and the median's classify JSON; run
# after the imports of a probe below
PIPELINE = """
import contextlib, io
for i, (family, params) in enumerate(SPECS):
    d = ms.descriptor_from_params(family, params)
    a = ms.absorb(ms.init(d), 3.25)
    b = ms.parse_state(ms.serialize_state(ms.absorb_many(ms.init(d), [3.5, 3.75])))
    ms.finalize(ms.merge(a, b))
    with open(f"{i}.json", "wb") as fh:
        fh.write(ms.serialize_state(a))
assert cli.main(["classify", "--family", "hamy", "--r", "3"]) == 0
d = ms.descriptor_from_params(*SPECS[0])
shards = [f"shard{j}.json" for j in range(5)]
for j, name in enumerate(shards):
    with open(name, "wb") as fh:
        fh.write(ms.serialize_state(ms.absorb(ms.init(d), 3.25 + j)))
assert cli.main(["merge", "--out", "merged.json", *shards]) == 0
with open("merged.json", "rb") as fh:
    assert ms.parse_state(fh.read()).count == 5
with open("values.txt", "w") as fh:
    fh.writelines(f"{1 + i % 97}\\n" for i in range(2 * cli.BLOCK_LINES + 3))
for family in (["power", "--p", "1"], ["hamy", "--r", "4"], ["median"],
               ["quasiarithmetic", "--f", "ln"]):
    assert cli.main(["eval", "--family", *family, "--input", "values.txt"]) == 0
assert cli.main(["eval", "--family", "sympoly", "--r", "2", "--p", "5",
                 "--input", "values.txt"]) == 2
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["classify", "--family", "median", "--format", "json"]) == 0
assert '"state_dimension": null' in out.getvalue(), out.getvalue()
"""

NUMPY_PROBE = """
import sys
sys.modules["numpy"] = None  # from here on, importing numpy raises
import meanstream as ms
from meanstream import cli
""" + PIPELINE + """
assert cli.main(["verify", "--seed", "1", "--trials", "5"]) == 0
assert cli.main(["myhill", "--family", "power", "--p", "1", "--alphabet", "1,2",
                 "--max-len", "4"]) == 0
assert sys.modules["numpy"] is None
print("no numpy")
"""

# modules that `import meanstream` and its streaming paths must not load:
# dataclasses pulls in inspect (and ast, dis, tokenize), fractions decimal,
# and a `from __future__` import loads __future__
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "__future__")

HEAVY_PROBE = """
import sys
before = set(sys.modules)
import meanstream as ms
from meanstream import cli
""" + PIPELINE + """
loaded = sorted(m for m in HEAVY if m in sys.modules and m not in before)
assert loaded == [], loaded
assert callable(ms.run_suite)  # verify resolves
print("light")
"""

SYMFUN_PROBE = """
import sys
import meanstream as ms
from meanstream import cli, families
""" + PIPELINE + """
assert "meanstream.symfun" not in sys.modules
assert getattr(families, "sigma_from_power") is ms.sigma_from_power
assert ms.symfun.MAX_MULTI_EXPONENTS == families.MAX_MULTI_EXPONENTS == 12
print("no symfun")
"""

START_PROBE = """
import sys
import meanstream as ms
from meanstream import cli, families

def loaded(names):
    return sorted(m for m in names if m in sys.modules)

for d in (ms.power_mean(1), ms.hamy(4), ms.median_mean("lower"), ms.gini(2, 1)):
    ms.finalize(ms.absorb_many(ms.init(d), [1.0, 2.0, 4.0]))
with open("values.txt", "w") as fh:
    fh.write("1\\n2\\n4\\n")
for family in (["power", "--p", "1"], ["hamy", "--r", "4"], ["median"]):
    assert cli.main(["eval", "--family", *family, "--input", "values.txt"]) == 0
assert loaded(LIGHT) == [], loaded(LIGHT)
ms.biplanar(2.0, 3.0, 3, 3)  # its exponent check runs on integer ratios
assert loaded(LIGHT) == [], loaded(LIGHT)
ms.quasi_arithmetic("ln")
assert loaded(LIGHT) == ["meanstream.generators"], loaded(LIGHT)
assert families.generator_by_name is ms.generator_by_name
from meanstream.families import GeneratorFunction, pair_from_names
assert pair_from_names is ms.generators.pair_from_names
print("streaming core")
"""

RECORDS_PROBE = """
import sys
import meanstream as ms
ms.check_reflexivity(ms.power_mean(1.0)).to_json()
ms.enumerate_classes(ms.median_mean("lower"), [0.0, 1.0, 2.0], 4).as_dict()
loaded = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
assert loaded == [], loaded
print("light")
"""

LAZY_PROBE = """
import sys
import meanstream as ms
from meanstream import cli

with open("values.txt", "w") as fh:
    fh.write("1\\n2\\n4\\n")
assert cli.main(["eval", "--family", "hamy", "--r", "2", "--input", "values.txt"]) == 0
loaded = sorted(m for m in ("meanstream.verify", "meanstream.myhill")
                if m in sys.modules)
assert loaded == [], loaded
assert set(ms.__all__) <= set(dir(ms))
for name in ms.__all__:
    getattr(ms, name)
assert ms.verify.run_suite is ms.run_suite and ms.myhill.ClassProfile is ms.ClassProfile
print("lazy")
"""

# the (module, attribute) names the benchmark's tracer (bench/job.py) looks
# up and replaces with timing wrappers
BENCH_ATTRIBUTES = [
    ("core", "parse_state"), ("core", "serialize_state"),
    ("cli", "parse_state"), ("cli", "serialize_state"), ("cli", "absorb"),
    ("cli", "finalize"), ("cli", "merge"),
    ("families", "descriptor_from_params"), ("families", "sigma_from_power"),
]

BENCH_PROBE = """
import sys
import meanstream
from meanstream import cli, core, families

assert "meanstream.state_io" not in sys.modules
modules = {"core": core, "cli": cli, "families": families}
calls = []
for module, name in ATTRIBUTES:
    fn = getattr(modules[module], name)
    assert callable(fn), (module, name)
    def shim(*args, fn=fn, key=f"{module}.{name}"):
        calls.append(key)
        return fn(*args)
    setattr(modules[module], name, shim)
with open("values.txt", "w") as fh:
    fh.write("1\\n2\\n4\\n")
assert cli.main(["eval", "--family", "power", "--p", "1",
                 "--input", "values.txt", "--state-out", "s.json"]) == 0
assert cli.main(["merge", "--out", "m.json", "s.json", "s.json"]) == 0
d = families.descriptor_from_params("hamy", {"r": 2})
state = core.parse_state(core.serialize_state(core.init(d)))
table = meanstream.power_sums([1.0, 2.0, 3.0], [1, 2])
assert families.sigma_from_power(2, 1, table) == 11.0
print(" ".join(sorted(set(calls))))
"""

# runs argv as a grandchild and prints its exit code and peak RSS (KiB): a
# child's ru_maxrss starts at its parent's peak, so the parent is kept small
PEAK_RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def src_env() -> dict:
    """The environment with src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


# the modules whose names load on first use, each from its own table
# (_LAZY, handed to core._lazy_names): a module of the package, and the
# names it defines
LAZY_MODULES = ["meanstream", "meanstream.core", "meanstream.families",
                "meanstream.cli"]
LAZY_NAMES = [
    (module, name) for module in LAZY_MODULES
    for loaded, names in importlib.import_module(module)._LAZY.items()
    for name in (loaded, *names)]


@pytest.mark.parametrize("module, name", LAZY_NAMES)
def test_a_lazy_name_resolves_once(monkeypatch, module, name):
    # witness: each lookup re-ran the loader, so ms.serialize_state(a) cost
    # about 2 us more than state_io.serialize_state(a)
    module = importlib.import_module(module)
    monkeypatch.delitem(vars(module), name, raising=False)
    first = getattr(module, name)

    def loader(*args, **kwargs):
        raise AssertionError(f"{name} was loaded again")

    with monkeypatch.context() as patched:
        patched.setattr(importlib, "import_module", loader)
        patched.setattr(builtins, "__import__", loader)
        again = getattr(module, name)
    assert again is first


@pytest.mark.parametrize("module", LAZY_MODULES)
def test_an_unknown_name_is_an_attribute_error(module):
    module = importlib.import_module(module)
    with pytest.raises(AttributeError) as raised:
        getattr(module, "no_such_name")
    assert str(raised.value) == (
        f"module {module.__name__!r} has no attribute 'no_such_name'")
    assert "no_such_name" not in vars(module)


def test_all_names_resolve():
    missing = [name for name in ms.__all__ if not hasattr(ms, name)]
    assert missing == []


@pytest.mark.parametrize("demo", [
    "01_streaming_means", "02_sharded_merge", "03_property_checks",
    "04_state_complexity"])
def test_demo_exits_zero(demo):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env=src_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_numpy_never_loads_on_a_streaming_path(tmp_path):
    # witnesses: absorb_many imported numpy, so eval peaked near 32 MB, where
    # a process without numpy peaks near 20 MB; verify drew its samples and
    # myhill fitted its growth line with numpy
    probe = f"SPECS = {BUILT_IN!r}\n{NUMPY_PROBE}"
    done = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "no numpy"


def test_start_up_loads_neither_dataclasses_nor_fractions(tmp_path):
    # witnesses: core, families and symfun imported dataclasses (9 ms with
    # inspect) and fractions (3 ms with decimal) at import; a biplanar's
    # exponent check imported fractions
    probe = f"SPECS = {BUILT_IN!r}\nHEAVY = {HEAVY!r}\n{HEAVY_PROBE}"
    done = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "light"


def test_streaming_paths_do_not_load_symfun(tmp_path):
    # witness: families imported symfun for MAX_MULTI_EXPONENTS and for
    # re-exporting sigma_from_power, which no finalizer calls
    probe = f"SPECS = {BUILT_IN!r}\n{SYMFUN_PROBE}"
    done = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "no symfun"


def test_start_path_loads_only_the_streaming_core(tmp_path):
    # witness: import meanstream loaded json (with json.decoder,
    # json.scanner, json.encoder and _json), numbers, and the generator
    # registry and pair builders, which no power, hamy, median, gini or
    # biplanar mean runs; a biplanar's exponent check loaded numbers (with
    # fractions); the state format and csv loaded with the package and the
    # CLI, though only a serialize or parse, and --column, use them
    light = ("json", "numbers", "meanstream.generators", "meanstream.state_io",
             "csv")
    probe = f"LIGHT = {light!r}\n{START_PROBE}"
    done = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "streaming core"


def test_the_names_the_bench_wraps_resolve_and_are_called(tmp_path):
    # the state format loads on first use, so core and cli resolve
    # parse_state and serialize_state through a module __getattr__; the
    # CLI calls them, and merge, through its own attributes, so that the
    # tracer's wrappers see its calls
    probe = f"ATTRIBUTES = {BENCH_ATTRIBUTES!r}\n{BENCH_PROBE}"
    done = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    wrapped = {f"{module}.{name}" for module, name in BENCH_ATTRIBUTES}
    assert done.stdout.splitlines()[-1].split() == sorted(
        wrapped - {"cli.absorb"})


def test_verify_and_myhill_records_load_no_dataclasses(tmp_path):
    # witness: PropertyReport, FunctionMean and ClassProfile were dataclasses,
    # so the first check or profile imported dataclasses and inspect
    done = subprocess.run([sys.executable, "-c", RECORDS_PROBE], env=src_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "light"


def test_verify_and_myhill_load_on_first_use(tmp_path):
    done = subprocess.run([sys.executable, "-c", LAZY_PROBE], env=src_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "lazy"


@pytest.mark.parametrize("family", [["power", "--p", "1"], ["hamy", "--r", "4"]],
                         ids=["power", "hamy"])
def test_eval_memory_does_not_grow_with_the_input(tmp_path, family):
    rng = random.Random(5)
    small, large = tmp_path / "small.txt", tmp_path / "large.txt"
    with open(small, "w") as fh_small, open(large, "w") as fh_large:
        for i in range(500_000):
            line = f"{rng.uniform(0.5, 20.0)!r}\n"
            fh_large.write(line)
            if i < 50_000:
                fh_small.write(line)
    peaks = []
    for path in (small, large):
        done = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_PROBE, sys.executable, "-m",
             "meanstream.cli", "eval", "--family", *family, "--input", str(path)],
            env=src_env(), capture_output=True, text=True, timeout=120)
        code, peak_kib = map(int, done.stdout.split())
        assert code == 0, done.stderr
        peaks.append(peak_kib / 1024)
    assert peaks[1] - peaks[0] <= 2.0, peaks  # MiB


def test_sources_parse_as_python_3_10():
    """pyproject.toml says requires-python >= 3.10, and a newer interpreter
    runs the suite, so syntax newer than 3.10 would pass here unseen."""
    paths = [path for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))


def _starts(path: str, env: dict) -> bool:
    return subprocess.run([path, "-c", "import sys"], env=env,
                          capture_output=True, timeout=60).returncode == 0


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_streaming_pipeline_runs_under_other_pythons(tmp_path, python):
    """The syntax check above cannot see a library call newer than 3.10,
    such as math.cbrt; this runs the numpy-free pipeline, verify and myhill
    under each other interpreter on PATH that starts.  A pyenv shim starts
    only an interpreter of the selected versions, so one that does not start
    gets another try with every installed version selected."""
    if python == f"python3.{sys.version_info.minor}":
        pytest.skip("the interpreter running the suite")
    path, env = shutil.which(python), src_env()
    pyenv = shutil.which("pyenv")
    if (path is not None and not _starts(path, env)
            and pyenv is not None and Path(path).parent.name == "shims"):
        listed = subprocess.run([pyenv, "versions", "--bare"],
                                capture_output=True, text=True, timeout=60)
        env["PYENV_VERSION"] = ":".join(listed.stdout.split())
    if path is None or not _starts(path, env):
        pytest.skip(f"{python} cannot be started")
    probe = f"SPECS = {BUILT_IN!r}\n{NUMPY_PROBE}"
    done = subprocess.run([path, "-c", probe], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "no numpy"
