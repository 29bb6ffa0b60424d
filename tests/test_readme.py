import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_recovers_truth(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    capsys.readouterr()
    assert np.linalg.norm(namespace["fix"].position - namespace["truth"]) < 0.01
