"""What a launch imports: each command loads only the layers it runs.

Every case runs in a fresh interpreter, since this test session has
long since imported every layer.  The child prints its output, then
one last line: the JSON list of the modules it loaded.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO_ROOT, "examples", "data")
MINE = [
    "mine",
    os.path.join(EXAMPLES, "problem.json"),
    os.path.join(EXAMPLES, "events.csv"),
]
#: The modules that bind numpy (``repro._numpy``'s ``np``): only the
#: STP closure kernel.
KERNELS = ("repro.constraints.stp",)

#: Makes numpy unfindable: the meta-path finder raises before any other
#: finder is asked.
BLOCK_NUMPY = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError("No module named %r" % name)
        return None

sys.meta_path.insert(0, BlockNumpy())
"""


def fresh(body, env=None):
    """Run ``body`` in a new interpreter; (stdout lines, modules)."""
    code = body + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    environ = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    environ.update(
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        **(env or {}),
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=environ,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *lines, modules = done.stdout.splitlines()
    return lines, set(json.loads(modules))


def run_cli(argv, prelude="", env=None):
    return fresh(
        prelude + "\nfrom repro.cli import main\n"
        "assert main(%r) == 0\n" % (argv,),
        env,
    )


def numpy_ran(modules):
    """Did numpy's package body run?  A lazily found ``numpy`` alone
    is only a placeholder; the body imports its submodules at once."""
    return any(name.startswith("numpy.") for name in modules)


def layers(modules, *names):
    return sorted(
        loaded for loaded in modules
        for name in names
        if loaded == name or loaded.startswith(name + ".")
    )


@pytest.fixture(scope="module")
def mine_launch():
    """``repro mine`` on ``examples/data``: (stdout lines, modules)."""
    return run_cli(MINE)


class TestCommandImports:
    def test_bare_import_loads_no_layer(self):
        _, modules = fresh("import repro")
        assert sorted(
            name for name in modules if name.startswith("repro")
        ) == ["repro", "repro._lazy"]
        assert not numpy_ran(modules)

    def test_parsing_any_command_runs_no_numpy(self):
        _, modules = fresh(
            "from repro.cli import build_parser\n"
            "from repro.constraints.stp import EngineUnavailable\n"
            "build_parser().parse_args(\n"
            "    ['mine', 'p.json', 'e.csv', '--engine', 'numpy'])\n"
        )
        assert not numpy_ran(modules)

    def test_mine_loads_no_service_harness_or_pool(self, mine_launch):
        lines, modules = mine_launch
        assert lines
        assert "asyncio" not in modules
        assert "concurrent.futures.process" not in modules
        assert layers(
            modules, "repro.service", "repro.bench", "repro.mining.generator"
        ) == []

    def test_mine_runs_no_numpy(self, mine_launch):
        """Mining-size structures close below the numpy crossover, and
        the columnar and clock kernels are pure Python."""
        _, modules = mine_launch
        assert not numpy_ran(modules)

    def test_serve_runs_no_numpy_and_loads_no_mining(self, tmp_path):
        pattern = {
            "structure": {
                "variables": ["A", "B", "C"],
                "constraints": [
                    {"from": "A", "to": "B", "tcgs": [{
                        "m": 0, "n": 1,
                        "granularity": {"kind": "label", "label": "hour"},
                    }]},
                    {"from": "B", "to": "C", "tcgs": [{
                        "m": 0, "n": 5,
                        "granularity": {"kind": "label", "label": "minute"},
                    }]},
                ],
            },
            "assignment": {"A": "a", "B": "b", "C": "c"},
        }
        (tmp_path / "pattern.json").write_text(json.dumps(pattern))
        (tmp_path / "tenants.csv").write_text(
            "tenant,event_type,timestamp,sequence_key\n"
            "t1,a,0,k\nt2,a,10,k\nt1,b,600,k\nt1,c,700,k\n"
        )
        lines, modules = run_cli([
            "serve", str(tmp_path / "pattern.json"),
            str(tmp_path / "tenants.csv"), "--max-resident", "1",
        ])
        assert lines == [
            't1/k#3: detected anchor t=0 at t=700: '
            '{"A": 0, "B": 600, "C": 700}'
        ]
        assert not numpy_ran(modules)
        assert layers(
            modules,
            "repro.mining.discovery",
            "repro.store",
            "repro.bench",
            "repro.constraints.propagation",
            "repro.granularity.algebra",
        ) == []


class TestWithoutNumpy:
    @pytest.mark.parametrize(
        "prelude, env",
        [(BLOCK_NUMPY, None), ("", {"REPRO_NO_NUMPY": "1"})],
        ids=["unfindable", "REPRO_NO_NUMPY"],
    )
    def test_kernels_fall_back_and_mine_prints_the_same(
        self, mine_launch, prelude, env
    ):
        check = "".join(
            "import %s\nassert %s._np is None\n" % (name, name)
            for name in KERNELS
        )
        lines, modules = fresh(
            prelude + "\nfrom repro.cli import main\n"
            "assert main(%r) == 0\n" % (MINE,) + check,
            env,
        )
        assert lines == mine_launch[0]
        assert "numpy" not in modules
