import subprocess
import sys
from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")


def test_a_test_past_the_time_limit_fails_instead_of_hanging(tmp_path):
    # the suite's conftest with its limit lowered to half a second, over
    # a test that sleeps far past it
    source = CONFTEST.read_text(encoding="utf-8")
    lowered = source.replace("TIME_LIMIT = 60 ", "TIME_LIMIT = 0.5 ")
    assert lowered != source
    (tmp_path / "conftest.py").write_text(lowered, encoding="utf-8")
    (tmp_path / "test_sleep.py").write_text(
        "import time\n\n\ndef test_sleeps():\n    time.sleep(30)\n\n\ndef test_returns():\n    pass\n",
        encoding="utf-8",
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 1, done.stdout
    assert "test exceeded the per-test time limit of 0.5 s" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
