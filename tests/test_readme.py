import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs_as_written(capsys):
    # the README's library sketch block, verbatim: it keeps the sketch in
    # step with the signatures it calls
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\n+```python\n(.*?)```", text, re.S).group(1)
    exec(compile(sketch, str(README), "exec"), {})
    assert len(capsys.readouterr().out.split()) == 3  # tau, exponent, distance
