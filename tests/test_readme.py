"""The README's examples run as written.

The scenario under "Scenario files" verifies with exit 0, and the Python
block under "Library" runs in a fresh interpreter in which a RuntimeWarning
is an error.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from heavenly.cliapp import main

ROOT = Path(__file__).resolve().parent.parent


def readme_block(section: str, language: str) -> str:
    """The first ```language block after the heading `section`."""
    text = (ROOT / "README.md").read_text()
    start = re.search(rf"^#+ {section}$", text, re.MULTILINE).end()
    return re.search(rf"^```{language}\n(.*?)^```$", text[start:],
                     re.MULTILINE | re.DOTALL).group(1)


def test_scenario_example_verifies(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("example.json").write_text(readme_block("Scenario files", "json"))
    assert main(["verify", "example.json"]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_library_example_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c",
         readme_block("Library", "python")],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
