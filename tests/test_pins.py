"""Every per-command byte pin: the sha256 of a command's stdout.

``PINS`` maps a command line to the digest of its output.  The outputs the
benchmark times take their digests from ``perfbench/reference.json``, so a
pin there and here cannot differ.  A failing row prints both digests; the
new one is the pin to record when an output is meant to change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from diagmon import cli

REFERENCE = json.loads(
    (Path(__file__).parent.parent / "perfbench" / "reference.json").read_text()
)


def reference(key):
    return REFERENCE[key]["sha256"]


PINS = {
    "verify all": reference("verify all"),
    # the cap at the largest degree changes no byte
    "verify all --nmax 4": reference("verify all"),
    "verify all --nmax 0": (
        "a816e9aba31cf6d1a1c5588dbf6f507153ca0957448739624e1fd2883c95d2a2"),
    "verify all --nmax 1": (
        "7d51537019d0f4c25f82d2c7e297bf487dcb8854efa9b5025a1847d24c605575"),
    "verify all --nmax 2": (
        "6353bcc60d7b75725f4a0517a719141fe53b3ed7368f70c2c29d1d2b02989f9f"),
    "verify all --nmax 3": (
        "a30b9716439b0474ea65ba4b3e09c90fa1854eea54f42240ff758e7c7b75e209"),
    "build RR4": reference("build RR4"),
    "analyze RR4 F": reference("analyze RR4 F"),
    "category PT4 E": reference("category PT4 E"),
    "eggbox LL4": reference("eggbox LL4"),
    "stein PT3 E --side left": reference("stein PT3 E left"),
    # P4 is above TABLE_CAP: products are composed from generator actions
    "analyze P4 F": (
        "8984351bbe82d096d3f84f9194dd87ceeb1b0570931d182588089c560c652880"),
    "analyze P4 E": (
        "bfeb39e86fe94fe88ef077548be407753fab5046fc467e1d547a405fb0110949"),
    "eggbox P4": (
        "e686ff23d11e4eefc4cb6855e6a30c4b5a0958313271a1da4b56890455e8a51d"),
    "category P4 F": (
        "aadb9485398e4d88469059b7384712b4903d9d4e5b5195052dcb9d475b4e2c9f"),
    # the failure witnesses of the full sweep, under the table cap
    "analyze P3 E": (
        "b512497b7bd5ab198609ada357bef8ee1c1b573aa0008bf0fcb8e55144322279"),
    "category P3 F": (
        "a79b9ab88dacd43204805efcd14e35e461c6af2ef0dfa0a4342046c8472748fc"),
    "stein Pfd3 F --side right": (
        "2f7690ed03d3db72a8d29118b740548592718307898f14085594a117a9730536"),
    "stein I3 E --side right": (
        "3adbc03ff400c6c0b26f54d452166efdc5279a0c53b5119d815d0e26de284bd9"),
    "stein I4 E --side left": (
        "5c8a59dea98ac5a2d8e1b04a2f03ba8413d106f73afeb6634827fa167656593b"),
    "stein PT4 E --side left": (
        "126ff56d31076a7c758188a1580fc7c95d2e2280d4379a5d06765d8f1c3fc068"),
    "stein Pfd4 F --side right": (
        "1434635b6591af663263ccaea70e610d55e17c370314ac9e8a1d5482601e3f3a"),
    "stein RR4 F --side right": (
        "4d33adfcadd81db71f7b92cab5b7e8bc7934f30b69f1820cf7c4ccca541b43a1"),
}


@pytest.mark.parametrize("line", PINS)
def test_output_is_pinned(capsys, line):
    assert cli.main(line.split()) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == PINS[line], f"{line}: sha256 {got}, pinned {PINS[line]}"


def test_every_reference_output_has_a_row():
    # the reference keys name a side without its "--side" flag
    rows = {line.replace("--side ", ""): pin for line, pin in PINS.items()}
    for key, entry in REFERENCE.items():
        if "value" not in entry:
            assert rows.get(key) == entry["sha256"], key
