"""README's Python examples run as written: they are the documented library surface."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_has_the_two_library_examples():
    assert len(EXAMPLES) == 2
    assert "run_experiment" in EXAMPLES[0] and "build_problem" in EXAMPLES[1]


@pytest.mark.parametrize("index", range(len(EXAMPLES)))
def test_readme_example_runs(tmp_path, monkeypatch, index):
    monkeypatch.chdir(tmp_path)  # the first example writes results/demo
    exec(compile(EXAMPLES[index], f"README.md example {index + 1}", "exec"), {})
    if index == 0:
        assert (tmp_path / "results" / "demo" / "metrics.csv").is_file()
