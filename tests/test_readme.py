"""The README's Python examples run as doctests.

Only the ```` ```python ```` blocks are read.  Every other line, the fences
included, is blanked, so a closing fence does not end up in an example's
expected output and failures report README line numbers.
"""

import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text: str) -> str:
    out, inside = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            inside = line == "```python"
            out.append("")
        else:
            out.append(line if inside else "")
    return "\n".join(out) + "\n"


def test_readme_python_examples_run():
    source = _python_blocks(README.read_text(encoding="utf-8"))
    test = doctest.DocTestParser().get_doctest(source, {}, "README.md", str(README), 0)
    report = []
    runner = doctest.DocTestRunner(verbose=False)
    runner.run(test, out=report.append)
    prompts = sum(line.startswith(">>> ") for line in source.splitlines())
    assert prompts > 0
    assert (runner.failures, runner.tries) == (0, prompts), "".join(report)
