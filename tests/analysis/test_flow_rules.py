"""RL009-RL012 behaviour over the fixture mirror-trees + mutation test."""

import shutil
from pathlib import Path

import pytest

from repro.analysis import run_lint

from tests.analysis.conftest import REPO_ROOT, lint_fixture

pytestmark = pytest.mark.analysis

FLOW_RULES = ["RL009", "RL010", "RL011", "RL012"]


def _by_rule(result, rule_id):
    return [f for f in result.findings if f.rule_id == rule_id]


# -- RL009 lock-discipline ----------------------------------------------------


def test_rl009_flags_undominated_and_reacquired_locks():
    result = lint_fixture("rl009")
    findings = _by_rule(result, "RL009")
    assert len(findings) == 3
    assert all(f.path.endswith("bad_locks.py") for f in findings)
    messages = " ".join(f.message for f in findings)
    assert "no lock frame dominates" in messages
    assert "re-acquiring lock 'self.lock'" in messages
    # The partially-dominated frame (one branch only) is among them.
    lines = {f.line for f in findings}
    assert 25 in lines


def test_rl009_good_fixture_is_clean():
    assert lint_fixture("rl009/repro/runtime/good_locks.py").findings == []


def test_rl009_requires_lock_propagates_across_modules():
    result = lint_fixture("rl009_cross")
    findings = _by_rule(result, "RL009")
    assert len(findings) == 1
    assert findings[0].path.endswith("bad_caller.py")
    assert "flush_pending" in findings[0].message


def test_rl009_cross_module_good_caller_is_clean():
    # Linted together so the annotation in store.py is still visible.
    result = lint_fixture("rl009_cross")
    assert not any(
        f.path.endswith("good_caller.py") for f in result.findings
    )


# -- RL010 shm-lifecycle ------------------------------------------------------


def test_rl010_flags_leaky_paths():
    result = lint_fixture("rl010")
    findings = _by_rule(result, "RL010")
    assert len(findings) == 6
    assert all(f.path.endswith("bad_leak.py") for f in findings)
    messages = " ".join(f.message for f in findings)
    assert "may not reach 'unlink()' on all paths" in messages
    assert "rebinding 'shm'" in messages
    assert "clear_preload" in messages
    assert "shm-attach" in messages


def test_rl010_good_fixture_is_clean():
    assert lint_fixture("rl010/repro/engine/good_lifecycle.py").findings == []


# -- RL011 memo-staleness -----------------------------------------------------


def test_rl011_flags_unvalidated_cache_reads():
    result = lint_fixture("rl011")
    findings = _by_rule(result, "RL011")
    assert len(findings) == 2
    assert all(f.path.endswith("bad_memo.py") for f in findings)
    messages = " ".join(f.message for f in findings)
    assert "staleness" in messages


def test_rl011_good_fixture_is_clean():
    assert lint_fixture("rl011/repro/ml/good_memo.py").findings == []


# -- RL012 unguarded-shared-mutation ------------------------------------------


def test_rl012_flags_unguarded_writes():
    result = lint_fixture("rl012")
    findings = _by_rule(result, "RL012")
    assert len(findings) == 4
    assert all(f.path.endswith("bad_shared.py") for f in findings)
    messages = " ".join(f.message for f in findings)
    assert "Accumulator.entries" in messages
    assert "Accumulator.total" in messages
    # The declaration reaches the module-local subclass.
    assert "FastAccumulator.total" in messages


def test_rl012_good_fixture_is_clean():
    assert lint_fixture("rl012/repro/obs/good_shared.py").findings == []


# -- whole-tree + mutation ----------------------------------------------------


def test_flow_rules_clean_on_shipped_tree(shipped_lint):
    assert [
        finding for finding in shipped_lint.findings
        if finding.rule_id in FLOW_RULES
    ] == []


def test_removing_lock_frame_flips_lint_red(tmp_path):
    """Mutation check: dropping one `with self._lock:` frame in
    obs/health.py must flip `repro lint` from exit 0 to exit 1."""
    source_path = REPO_ROOT / "src" / "repro" / "obs" / "health.py"
    mirror = tmp_path / "repro" / "obs"
    mirror.mkdir(parents=True)
    shutil.copy(source_path, mirror / "health.py")

    clean = run_lint(
        [str(tmp_path)], select=["RL009"], root=str(tmp_path)
    )
    assert clean.exit_code == 0

    lines = (mirror / "health.py").read_text().splitlines(keepends=True)
    mutated_at = None
    for i, line in enumerate(lines):
        if line.strip() == "with self._lock:" and "inc_unlocked" in lines[i + 1]:
            indent = line[: len(line) - len(line.lstrip())]
            lines[i] = f"{indent}if True:\n"
            mutated_at = i
            break
    assert mutated_at is not None, "lock frame around inc_unlocked not found"
    (mirror / "health.py").write_text("".join(lines))

    mutated = run_lint(
        [str(tmp_path)], select=["RL009"], root=str(tmp_path)
    )
    assert mutated.exit_code == 1
    assert any(
        f.rule_id == "RL009" and "inc_unlocked" in f.message
        for f in mutated.findings
    )
