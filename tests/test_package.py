"""Guards on the names other code relies on: the package's exports, the
benchmark tracer's targets, and the README's library quick start."""

import contextlib
import importlib
import importlib.util
import io
import re
from pathlib import Path

import numpy as np

import ivstream

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in ivstream.__all__ if not hasattr(ivstream, name)]
    assert missing == []


def test_every_tracer_target_exists():
    # ivbench/tracer.py wraps these functions in a traced benchmark run; it is
    # loaded here from its file and only read.
    spec = importlib.util.spec_from_file_location("ivbench_tracer", ROOT / "ivbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"ivstream.{module}"), name, None))
    ]
    assert missing == []


def test_readme_algorithm_table_lists_every_algorithm():
    # "What's in the box" names each algorithm id of the table once, with its class.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What's in the box", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", section, flags=re.M)
    assert rows == [(alg, reg.__name__) for alg, reg in ivstream.estimators.REGRESSORS.items()]


def test_readme_quick_start_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], flags=re.S)
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README.md", "exec"), namespace)
    reg, cfg = namespace["reg"], namespace["cfg"]
    assert reg.n_iter_ == 20_000
    # "close to cfg.theta_star", as the block's comment says
    assert np.linalg.norm(reg.theta_ - cfg.theta_star) < 0.1
