"""Each lint rule fires exactly once on its minimal fixture and stays
quiet on the sanctioned alternative."""

from pathlib import Path

import pytest

from repro.analysis import run_paths


def _lint(tmp_path: Path, rel: str, source: str):
    """Write ``source`` at ``<tmp>/<rel>`` and lint the tree."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return run_paths([tmp_path / "src"], root=tmp_path)


def _codes(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------- FF001

FF001_BAD = """\
import numpy as np

def congestion(x):
    return np.exp(x)
"""


def test_ff001_fires_once_in_critical_module(tmp_path):
    findings = _lint(tmp_path, "src/repro/kernel/bad.py", FF001_BAD)
    assert _codes(findings) == ["FF001"]
    assert "np" in findings[0].context


@pytest.mark.parametrize("name,scalar", [
    ("pow", "math.pow"), ("float_power", "math.pow"), ("cbrt", "math.cbrt"),
    ("sin", "math.sin"), ("cos", "math.cos"), ("tan", "math.tan"),
    ("arcsin", "math.asin"), ("arctan2", "math.atan2"), ("asin", "math.asin"),
    ("sinh", "math.sinh"), ("tanh", "math.tanh"), ("arccosh", "math.acosh"),
    ("atanh", "math.atanh"), ("logaddexp", "math.log"),
    ("logaddexp2", "math.log2"),
])
def test_ff001_fires_once_per_transcendental(tmp_path, name, scalar):
    """numpy 2's ``np.pow`` alias and every trig, hyperbolic, ``cbrt``,
    ``logaddexp`` and ``float_power`` call fire too, in the kernel and
    in ``repro.rng``, each naming its scalar ``math`` replacement."""
    bad = f"import numpy as np\n\ndef f(x):\n    return np.{name}(x)\n"
    for rel in ("src/repro/kernel/bad.py", "src/repro/rng.py"):
        findings = _lint(tmp_path, rel, bad)
        assert _codes(findings) == ["FF001"], rel
        assert f"`{scalar}" in findings[0].message
        (tmp_path / rel).unlink()


def test_ff001_silent_outside_critical_modules(tmp_path):
    findings = _lint(tmp_path, "src/repro/metrics/free.py", FF001_BAD)
    assert findings == []


def test_ff001_allows_elementwise_nontranscendental(tmp_path):
    ok = "import numpy as np\n\ndef f(a, b):\n    return np.minimum(a, b)\n"
    assert _lint(tmp_path, "src/repro/kernel/ok.py", ok) == []


def test_ff001_resolves_from_import(tmp_path):
    bad = "from numpy import exp\n\ndef f(x):\n    return exp(x)\n"
    findings = _lint(tmp_path, "src/repro/shadow/flows.py", bad)
    assert _codes(findings) == ["FF001"]


# ---------------------------------------------------------------- FF002

FF002_BAD = """\
import time

def stamp():
    return time.time()
"""


def test_ff002_fires_once_outside_obs(tmp_path):
    findings = _lint(tmp_path, "src/repro/core/timing.py", FF002_BAD)
    assert _codes(findings) == ["FF002"]


def test_ff002_allowed_in_obs_and_scripts(tmp_path):
    assert _lint(tmp_path, "src/repro/obs/spans.py", FF002_BAD) == []
    assert _lint(tmp_path, "scripts/tool.py", FF002_BAD) == []


def test_ff002_resolves_from_import(tmp_path):
    bad = (
        "from time import perf_counter\n\n"
        "def f():\n    return perf_counter()\n"
    )
    findings = _lint(tmp_path, "src/repro/api/hot.py", bad)
    assert _codes(findings) == ["FF002"]


# ---------------------------------------------------------------- FF003

FF003_BAD = """\
import os

def payload():
    return os.urandom(16)
"""


def test_ff003_fires_once_on_urandom(tmp_path):
    findings = _lint(tmp_path, "src/repro/tornet/pay.py", FF003_BAD)
    assert _codes(findings) == ["FF003"]


def test_ff003_fires_once_on_secrets(tmp_path):
    bad = "import secrets\n\ndef payload():\n    return secrets.token_bytes(16)\n"
    findings = _lint(tmp_path, "src/repro/tornet/pay.py", bad)
    assert _codes(findings) == ["FF003"]


def test_ff003_fires_on_global_random_and_legacy_np(tmp_path):
    bad = (
        "import random\nimport numpy as np\n\n"
        "def f():\n"
        "    return random.random() + np.random.rand()\n"
    )
    findings = _lint(tmp_path, "src/repro/core/amb.py", bad)
    assert _codes(findings) == ["FF003", "FF003"]


def test_ff003_allows_seeded_constructors(tmp_path):
    ok = (
        "import random\nimport numpy as np\n\n"
        "def f(seed):\n"
        "    r = random.Random(seed)\n"
        "    g = np.random.default_rng(seed)\n"
        "    return r.random() + g.random()\n"
    )
    assert _lint(tmp_path, "src/repro/core/ok.py", ok) == []


# ---------------------------------------------------------------- FF004

FF004_BAD = """\
def settle(rng, members):
    total = 0
    for m in {1, 2, 3}:
        total += rng.random()
    return total
"""


def test_ff004_fires_once_on_set_loop_with_rng(tmp_path):
    findings = _lint(tmp_path, "src/repro/core/loop.py", FF004_BAD)
    assert _codes(findings) == ["FF004"]


def test_ff004_quiet_with_sorted_or_no_rng(tmp_path):
    ok = (
        "def settle(rng, members):\n"
        "    total = 0\n"
        "    for m in sorted({1, 2, 3}):\n"
        "        total += rng.random()\n"
        "    return total\n"
    )
    assert _lint(tmp_path, "src/repro/core/ok1.py", ok) == []
    no_rng = "def f(xs):\n    return [x for x in {1, 2}]\n"
    assert _lint(tmp_path, "src/repro/core/ok2.py", no_rng) == []


def test_ff004_tracks_names_assigned_from_sets(tmp_path):
    bad = (
        "def f(rng):\n"
        "    pending = set(range(4))\n"
        "    return [rng.random() for p in pending]\n"
    )
    findings = _lint(tmp_path, "src/repro/core/assigned.py", bad)
    assert _codes(findings) == ["FF004"]


# ---------------------------------------------------------------- FF005

FF005_BAD = """\
from repro.api import campaign

def run():
    return campaign
"""


def test_ff005_fires_once_on_upward_module_scope_import(tmp_path):
    findings = _lint(tmp_path, "src/repro/kernel/up.py", FF005_BAD)
    assert _codes(findings) == ["FF005"]


def test_ff005_allows_lazy_import_and_obs_metrics(tmp_path):
    lazy = (
        "def run():\n"
        "    from repro.api import campaign\n"
        "    return campaign\n"
    )
    assert _lint(tmp_path, "src/repro/kernel/lazy.py", lazy) == []
    metrics = "from repro.obs.metrics import counter\n"
    assert _lint(tmp_path, "src/repro/kernel/m.py", metrics) == []


def test_ff005_catches_type_checking_imports(tmp_path):
    bad = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.service.daemon import Daemon\n"
    )
    findings = _lint(tmp_path, "src/repro/core/tc.py", bad)
    assert _codes(findings) == ["FF005"]


def test_ff005_does_not_restrict_upper_layers(tmp_path):
    ok = "from repro.service.daemon import Daemon\n"
    assert _lint(tmp_path, "src/repro/api/front.py", ok) == []


# ---------------------------------------------------------------- FF006

FF006_BAD = """\
def load(path):
    try:
        return open(path).read()
    except OSError:
        return ""
"""


def test_ff006_fires_once_on_silent_fallback(tmp_path):
    findings = _lint(tmp_path, "src/repro/service/sil.py", FF006_BAD)
    assert _codes(findings) == ["FF006"]


def test_ff006_satisfied_by_raise_warn_or_counter(tmp_path):
    reraise = (
        "def f():\n"
        "    try:\n        return g()\n"
        "    except ValueError as exc:\n        raise RuntimeError from exc\n"
    )
    warned = (
        "from repro.obs.metrics import warn_once\n\n"
        "def f():\n"
        "    try:\n        return g()\n"
        "    except ValueError:\n"
        "        warn_once('x')\n        return None\n"
    )
    counted = (
        "def f(counter):\n"
        "    try:\n        return g()\n"
        "    except ValueError:\n"
        "        counter.inc()\n        return None\n"
    )
    for i, src in enumerate((reraise, warned, counted)):
        assert _lint(tmp_path, f"src/repro/service/ok{i}.py", src) == []


def test_ff006_exempts_main_modules(tmp_path):
    assert _lint(tmp_path, "src/repro/service/__main__.py", FF006_BAD) == []
