"""Compare the golden rows' answers, questions and counts between two trees.

    python tests/repin_report.py PARENT_COMMIT

Solves every row of ``test_cheap_golden.py`` and ``test_rational_golden.py``
twice, with ``golden_questions.py``: once with the package of
PARENT_COMMIT, taken from a ``git archive`` copy, and once with the
package of the working tree.  Both sides solve the working tree's rows.
It prints, in the form ``CHANGES.md`` uses:

* every row whose parts changed;
* every row whose questions, ``(x, sorted ys, answer)`` in order, are not
  a subsequence of the parent's;
* old -> new for every count the tests pin that changed: each row's
  ``oracle_calls`` and engine counters, and each row's events, then the
  totals.

It exits 1 when a row's parts changed, and 0 otherwise.  It rewrites no
pin: the change edits its pins itself.  It is not named ``test_*.py``, so
pytest does not collect it.
"""

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
COUNTS = ("oracle_calls", "cycle_iterations", "restarts", "recursion_depth", "invariant_checks")


def _record(src, out):
    """Every golden row's record, solved with the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, str(TESTS / "golden_questions.py"), str(out)], env=env, check=True)
    report = json.loads(Path(out).read_text(encoding="utf-8"))
    package = Path(report["package"])
    if Path(src).resolve() not in package.parents:
        raise SystemExit(f"solved with {package}, not with the package under {src}")
    return report["rows"]


def _is_subsequence(short, long):
    rest = iter(long)
    return all(item in rest for item in short)


def compare(old, new):
    """The report's lines, and whether some row's parts changed."""
    lines, rows = [], list(new)
    parts_changed = [row for row in rows if old[row]["parts"] != new[row]["parts"]]
    lines.append(f"rows whose parts changed: {', '.join(parts_changed) or 'none'}")
    not_sub = [row for row in rows if not _is_subsequence(new[row]["questions"], old[row]["questions"])]
    lines.append(f"rows whose questions are not a subsequence of the parent's: {', '.join(not_sub) or 'none'}")
    events = [row for row in rows if old[row]["events"] != new[row]["events"]]
    lines.append(f"rows whose events changed: {', '.join(events) or 'none'}")
    lines.append("pinned counts, old -> new:")
    changed = 0
    for row in rows:
        moves = [f"{name} {old[row][name]} -> {new[row][name]}" for name in COUNTS
                 if old[row][name] != new[row][name]]
        if moves:
            changed += 1
            lines.append(f"  {row}: {'; '.join(moves)}")
    for name in COUNTS:
        before, after = (sum(side[row][name] for row in rows) for side in (old, new))
        lines.append(f"total {name} over {len(rows)} rows: {before} -> {after}")
    lines.append(f"rows with a changed count: {changed} of {len(rows)}")
    return lines, bool(parts_changed)


def main(argv):
    if len(argv) != 1:
        raise SystemExit(__doc__)
    commit = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", commit, "src"], check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "parent", filter="data")
        old = _record(tmp / "parent" / "src", tmp / "parent.json")
        new = _record(REPO / "src", tmp / "change.json")
    lines, parts_changed = compare(old, new)
    print(f"parent {commit} against the working tree")
    print("\n".join(lines))
    return 1 if parts_changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
