"""Golden digests of every scenario report at its default config, seed 7.

A refactor or a speed-up must leave each runner's report body, traces and
results CSV byte-identical; a change that means to alter a report updates
its digests here. RSA keys are random per run, but no reported value depends
on key material, so the digests are stable across processes.
"""

from __future__ import annotations

import hashlib

import pytest

from discoverfriends.scenarios import RUNNERS, ScenarioConfig

GOLDEN = {
    "discover": (
        "630ad290c113b42edd31edf8c03e85bc695c2817bdecc9879d8d1de8aa5eaaef",
        "14e7edf713e70ab9606b34a7e651ccbfa26f4b5cb9f72dbafb03bef512fc000e",
        "9029484bd8bc9fe4050b233ee03f0d1f68d9cab1b764dd8d88b06f18997c7b5a",
    ),
    "chat": (
        "997d124921829adb34c0334c5c450999b11382f701aff291a53445195e8a858f",
        "be3dd552610879fcba2e133b718e4ba10326a2c485e4c38c8d130539a4ef6e97",
        "57ac3e68f0b1f9c08f59beda0a41fab56d4ad4b067c46c9e46bc814627a21deb",
    ),
    "checkin": (
        "d70930ec969f6e1d48f1a193ff41b87cf686cdca89d4341e394a011a7f1d73b1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1beeb8ddbbf0a32758ee5526b5f20cd931b9e141df639d99a2570d8c2fcebadd",
    ),
    "loadtest": (
        "aa78c7eae84ea1d33aac6dd851146ab262f9d9fc3e1ae1fb4ef91cb1b68d0610",
        "22e69dde189d0357630519267672a70e52e1d99afaad45d795e3bcaf551d1c98",
        "f30e478e3547cb61244266d6c9e3eea8d94a39722db7c94df62920149ea03969",
    ),
    "adversary": (
        "0b5444d593b1bc90347862dfc76922fd3de4883d63e6f4bde58a913a3dc50500",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3f61da32548a32f98531d950ba6b1c368bfc2f4b6885445153442e379834985",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_runner_has_a_golden_digest():
    assert set(GOLDEN) == set(RUNNERS)


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_seed7_report_is_byte_identical(kind):
    report = RUNNERS[kind](ScenarioConfig(kind=kind))
    traces = "".join(
        f"{name}\n" + "\n".join(lines) + "\n" for name, lines in sorted(report.traces.items())
    )
    digests = (
        _sha256(report.render()),
        _sha256(traces),
        _sha256("\n".join(report.csv_lines())),
    )
    assert digests == GOLDEN[kind]
