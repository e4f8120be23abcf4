"""The docs checks run in tier-1: Markdown links and the API reference.

Both tools are stdlib-only and take a fraction of a second, so a stale
``docs/API.md`` or a broken local link fails the test suite, not only
the CI ``docs`` job.
"""

import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


@pytest.mark.parametrize(
    "command",
    [["tools/gen_api_docs.py", "--check"], ["tools/check_links.py"]],
    ids=["api-docs-current", "links-resolve"],
)
def test_docs_tool_passes(command):
    done = subprocess.run(
        [sys.executable, *command],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
