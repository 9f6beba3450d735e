"""Golden traces: SHA-256 hashes of seeded CLI output.

Each case runs the CLI in-process and hashes the file it writes.  The hashes
were recorded from the string-keyed simulator that the index-space engine
replaced, so they pin that every seeded trace (iterates, ledger counts, every
measured string of every search round) is byte-identical across engine
changes.  A case that stops matching is a behaviour change, not a fixture to
refresh: report which float boundary flipped a draw rather than reseeding.

The ``run`` cases start from the criterion-6 points, whose values fit the
default 16/10 register (quadratic100 from the CLI default (0.75, 0.75) does
not).  The real-objective ``compare`` case uses rosenbrock from the origin in
format 8/0: one candidate improves and most values saturate the register.

The ``-quiet`` cases are the quantum ``run`` cases without ``--emit-rounds``.
Without round records a search step that marks nothing simulates no state, so
they are the cases that reach that path.  Their hashes were recorded at commit
e07cbd2, where every search step still ran the simulator: they pin that a
quiet run prints what the simulated run printed.

``DEMOS`` holds the hashes of each demo's stdout, run as its own process with
RuntimeWarnings as errors, as a user runs it.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpsearch.cli import main

RUN_FLAGS = [
    "--emit-rounds", "--tau", "0.05", "--max-iterations", "40",
    "--mesh-size-tolerance", "0.01",
]

START = {
    "quadratic100": [0.5, 0.5],
    "rosenbrock": [-0.5, 0.5],
    "sphere": [0.75, -0.5],
    "step": [0.75, 0.5],
}

GOLDEN = {
    "run-quadratic100-classical-0": "e7be331f342b61171051b528f378d699fb16d694e79a28a769878f4d81f3a470",
    "run-quadratic100-classical-1": "478ef6fd994aa7d5af4997c628ae40de1374a57771b7169ad0ca0fbf9730c7be",
    "run-quadratic100-quantum-0": "8760dd3b3416efc7b7727fa9d6dc7c9cde27e04479dc21292fc93be2afad5ebd",
    "run-quadratic100-quantum-1": "ccf0924b983f7fc345e8797379e4b4b12c64b809e15ab780dbfd18c1caf93680",
    "run-rosenbrock-classical-0": "a7e3b3ef575ee8be8614cce4ec1446a003716c0ee9b6f42e8361af3d4dd70c39",
    "run-rosenbrock-classical-1": "a937e767f7f7290b5b58e263f710b83d0dbb2497440406259610b73e7786220d",
    "run-rosenbrock-quantum-0": "53cc70c979fa5054b4409bee344a5484f5ee04162715d9735cd71b5b7183ef89",
    "run-rosenbrock-quantum-1": "c58a008ab2014cc7b1ca877c4778e67b01fb441cab98a8e217939b1dbf203884",
    "run-sphere-classical-0": "beeb79f3ac70600ad9d7469bb429eb5dd8e0dc600aefbcb926abe88d970b2010",
    "run-sphere-classical-1": "4924abdebd490206870464da041596dcad5549cdc3c68db618eb7ae674333c3b",
    "run-sphere-quantum-0": "c1f6b1b40d143c32a9b97d399f657986b118fee8267d3cccb4a5716aabc9a01e",
    "run-sphere-quantum-1": "ee580150c8c726936829e1d35a924cd7d640dc24f9ab9f274f80f705d7f3a5e3",
    "run-step-classical-0": "f546dab602b6ab4d0d93213a0c57b6c3f24a2598d8c1ab72dd4f4575ce78907b",
    "run-step-classical-1": "24e6d69b5cf614af8df2006a8365e5710cbba7b46c5a1c85d9b03d567fa025f6",
    "run-step-quantum-0": "1d4bdc8ffff62253be1e41f914cb97b17a0f732d0967b71a2c5e9e35290527d0",
    "run-step-quantum-1": "44db1428b2fd790e26f86bfe8df1ab838b00f28760e0460c1ee8c7b4a30b06a7",
    "run-quadratic100-quantum-0-quiet": "9e41f7cc8395f34812e0a8fdce978342d7e0fa7a5a6e43fb0f8e54dc30660b7a",
    "run-quadratic100-quantum-1-quiet": "7fd4f772831c7993ecba59fb16200a762012cf565bf18c7ed98c87442d83b64f",
    "run-rosenbrock-quantum-0-quiet": "5f3419b3bf8181fb68e190da23f61fc65e458b6b902e0067bf80fa04087dde50",
    "run-rosenbrock-quantum-1-quiet": "163ab31a6a37485b5a5c425a3c6c09f837259980ae0a2284999a980f8e43c3aa",
    "run-sphere-quantum-0-quiet": "e101c88673a407c9034a82066aa45b21c1b090e38678cf8bcce8fb5dca0dc70a",
    "run-sphere-quantum-1-quiet": "44dc717f0667c75acf3a0ee1ddf4c02a8b7e58a754b1dc359f22912de14d5753",
    "run-step-quantum-0-quiet": "19b783689b4160504b406540d0b7e8344c1801094b4d063a395c8ab1018859ed",
    "run-step-quantum-1-quiet": "34ec60d1ec68d129b44e6faddfa4e78cb6a5803ae7e53ff6608cf1e3d54c5c1f",
    "compare-planted": "5bf2768c3ec0d0ff37dca2b7db37c992a090e1259ade8617b0243fc1c2dd0666",
    "compare-rosenbrock": "dbe23a93f1276d171f92eaa8c739137bf20bb542b45a7eba996da453993cf65e",
}


DEMOS = {
    "01_fixed_point_registers.py": "51d6954e46463f04b1144de0557f879302457302941baaff6f481393fa07d9d0",
    "02_amplitude_amplification.py": "2a04c6d5665e79331306f108fd7d528a227cd0a3a5bb653ab05815ab3cbbdbc6",
    "03_finite_termination.py": "431f4d09e1b40c9717a4e3aa51be716e1b7a2ddf7a204c101f72bf7cdd5b311f",
    "04_pattern_search.py": "9e7ef1f985c0fa9e99294b6bcf38b23521f8511494932eea5aa306c219627bf0",
    "05_quantum_vs_classical.py": "a46350692877ae6dfe991e4d6ea15029d96cb7d2b44a3c5313a1218d68f93201",
}

ROOT = Path(__file__).resolve().parents[1]


def _argv(case: str, tmp_path) -> list:
    if case == "compare-planted":
        return ["compare", "--search-points-count", "256", "--search-radius", "20",
                "--trials", "5"]
    if case == "compare-rosenbrock":
        config = tmp_path / "compare.json"
        config.write_text(json.dumps({"objective": "rosenbrock", "planted_t": None}))
        return ["compare", "--config", str(config), "--search-points-count", "64",
                "--search-radius", "4", "--trials", "4"]
    _, objective, backend, seed, *quiet = case.split("-")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"objective": objective, "initial_point": START[objective]}))
    flags = [f for f in RUN_FLAGS if not (quiet and f == "--emit-rounds")]
    return ["run", "--config", str(config), "--backend", backend, "--seed", seed, *flags]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_trace(case, tmp_path):
    out = tmp_path / "out.jsonl"
    assert main(_argv(case, tmp_path) + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[case]


def test_demos_cover_every_demo_script():
    assert sorted(DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_stdout(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMOS[demo]
