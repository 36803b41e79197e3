import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from gaussrough.cli import main

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
_SPEC = importlib.util.spec_from_file_location("output_digests", _PATH)
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)


def test_output_digests_two_cases(tmp_path, monkeypatch):
    proc = subprocess.run(
        [sys.executable, str(_PATH), "lift/fbm", "rhovar/huge-n"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 * len(digests.SEEDS) * len(digests.FORMATS) + 1
    # A run's digest is that of the file the command line writes for its config.
    command, config = digests.cases()["lift/fbm"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(dict(config, seed=7)))
    assert main([command, "--config", "cfg.json", "--out", "out.json"]) == 0
    digest = hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest()
    assert f"lift/fbm seed=7 json exit=0 sha256={digest} stderr=''" in lines
    huge = [line for line in lines if line.startswith("rhovar/huge-n")]
    assert len(huge) == 4
    assert all(" exit=2 sha256=- stderr=\"config error: 'n' must be" in line for line in huge)
    assert lines[-1].startswith("summary runs=8 exits=0:4 2:4 sha256=")


def test_output_digests_cases_cover_every_subcommand():
    from gaussrough.experiments import SUBCOMMANDS

    commands = {command for command, _ in digests.cases().values()}
    assert commands == set(SUBCOMMANDS)
    assert len(digests.cases()) == len(SUBCOMMANDS) * len(digests.KERNELS) + 3
