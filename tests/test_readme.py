"""The README's library quick start runs as written, so that a changed signature
cannot leave it stale.  CI runs the same block in an environment without the
test extra."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    block = re.search(r"^## Library quick start\n\n```python\n(.*?)^```", README.read_text(), re.S | re.M)
    exec(compile(block.group(1), f"{README.name}: library quick start", "exec"), {})
    # it prints the adjoint rate, the dual and the oracle's value of the hump path
    rate, dual, qp = map(float, capsys.readouterr().out.split())
    assert rate > 0
    assert abs(rate - dual) <= 1e-6 * (1.0 + rate)
    assert abs(qp - rate) <= 1e-3 * rate
