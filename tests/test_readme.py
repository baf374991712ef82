"""The README's examples run as written."""

import json
import re
from pathlib import Path

import pytest

from saf import evaluate_layout
from saf.io import layout_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library", "exec"), {})


@pytest.mark.parametrize("q", [4, 8])
def test_layout_file_example_peaks_at_broadside(q):
    # Its two RX, 2 wavelengths apart, give equal maxima at u = -1, -0.5, 0 and 0.5:
    # the tie goes to the FOV centre, so both beamwidth cuts go through the main lobe.
    block = README.read_text().split("\n### Layout file (JSON)\n", 1)[1]
    layout, _zones = layout_from_dict(json.loads(re.search(r"```json\n(.*?)```", block, re.DOTALL).group(1)))
    _, report = evaluate_layout(layout, q, q)
    assert (report.peak_u, report.peak_v) == (0.0, 0.0)
    assert report.pslr_db == 0.0
    assert None not in (report.hpbw_az, report.hpbw_el)
