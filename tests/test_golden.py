"""Byte-identity of every CSV the CLI writes, and of the small SVG charts.

The digests were taken from the per-module writers that the shared CSV writer
replaced; any change to the 12-significant-digit serialization, the row order
or the schemas shows up here as a digest mismatch. The simulate digests pin
the closed-form transient engine: its samples on the dt grid, and the flip
events of the leaky and finite-storage runs. Their SVG digests, taken before
the waveform was evaluated on demand, pin the whole-column reads the charts
are drawn from.
"""

import hashlib
import os

import pytest

from sshcsim.cli import main

GOLDEN = {
    "default": (
        ["simulate", "--cycles", "2", "--svg"],
        {
            "waveform.csv": "db9277eb2043d33d4fe747816e982f97c3301258a96de889aeecc7f5e1f10008",
            "flip_events.csv": "47d6c63bc465daffa5720eda1807989bdffc437b9291de7247d0c3c9c39253c8",
            "waveform.svg": "67ecbcd49b15b58755633e9fd9a22d36f2303907308526d0a2cd60c0687f2fee",
            "efficiency.svg": "0534165871aba2fc3d27b0c257c14442e49da160147c4a69db1ddaea871a9778",
        },
    ),
    "full_bridge": (
        ["simulate", "--cycles", "2", "--full-bridge"],
        {
            "waveform.csv": "a477604de462df84cdb267c4e8ab3e5dd2ea0a64ae0bfcdc53b04a5e2372befa",
            "flip_events.csv": "a65e41f46a6a40ce99fe2a101f98bd85586252514d0fc341cd92c3c9cfe0280d",
        },
    ),
    "leaky": (
        ["simulate", "--cycles", "2", "--set", "res_rp=10Mohm", "--svg"],
        {
            "waveform.csv": "f6d0530decd66604a36a53f542c95480fc7feee6c660cbbfaa099ebbe9fc8036",
            "flip_events.csv": "071314eba8d1330cbad3e2229015ebfab15967eb00c630791cbd2b74cb181a9c",
            "waveform.svg": "6cd48f965c3ecf4cdee338d249909570830337a4b21e4d1c31c56f9e654099bf",
            "efficiency.svg": "0534165871aba2fc3d27b0c257c14442e49da160147c4a69db1ddaea871a9778",
        },
    ),
    "finite_storage": (
        ["simulate", "--cycles", "2", "--set", "storage_cs=1uF", "--svg"],
        {
            "waveform.csv": "c2a4e47edb0d4e9a5ed1f9b6e123f7b962beea6d8d8c53a2cf62d9cf448f6fbb",
            "flip_events.csv": "ca6ad7182e32da2f73ce9e9cd6f5a73136638ff47773a82ab0cbb2edbb89a798",
            "waveform.svg": "60398ff6afac2a8412bc5f80dd0341171a9763b9d891ed160240b5f89c8e60e4",
            "efficiency.svg": "92884684b2e112956c81c0a696379d6f62d1b71bf7c7502153dc0cff4aad0ebb",
        },
    ),
    # Ten cycles put many half cycles in each pixel column of waveform.svg,
    # so its envelope merges runs of many pieces and flips.
    "ct20_10_cycles": (
        ["simulate", "--cycles", "10", "--ct-ratio", "20", "--svg"],
        {
            "waveform.csv": "42c209634fd87f9dfc907bc47b010a56b0cbb5f43424b48cea2d7656a6f373bf",
            "flip_events.csv": "67cdaeb303a7ea260723f079eb80c8da6ed8b96d7e8e7011f557b719ebd6636f",
            "waveform.svg": "990204019889bbaea55a358d3c90effb292d726942b39abfeb94cdd15252acd2",
            "efficiency.svg": "4238584aa62efd0a24d6b4d86747193884b4a7b07f10b62f7b4503ab6f58a31d",
        },
    ),
    "full_bridge_10_cycles": (
        ["simulate", "--cycles", "10", "--full-bridge", "--svg"],
        {
            "waveform.csv": "acdefd6ef757a95390ddb9e559441d0c1cae1c0059f34b11e15f7f3431e0d852",
            "waveform.svg": "d44d3614a0cb568543b7c43cb786b2d938d6bd6a373c1ae7452768f20b0b6541",
        },
    ),
    "leaky_finite_217Hz_10_cycles": (
        ["simulate", "--cycles", "10", "--set", "res_rp=1MOhm", "--set", "storage_cs=1uF",
         "--set", "frequency=217Hz", "--svg"],
        {
            "waveform.csv": "1afc3a9d1135ae2f7f923c8aa4e8798083969dc2ff94c349bfdd5da85a036ade",
            "flip_events.csv": "abbf37dfa09670ebdbaeb2fc2b182c3531d139f4586ee6432bc6d3759e283d14",
            "waveform.svg": "96c6d59f71d55c579a6845b330385f9a7e21e95b32686851667bbd31563f2fe1",
            "efficiency.svg": "97191e34e2f45758842a7606519133e643b77c4773cabc835318bb7de94edc67",
        },
    ),
    "analyze": (
        ["analyze", "--ct-ratio", "3", "--cycles", "40", "--svg"],
        {
            "flip_series.csv": "66c0874d6bae3d7d85d2c7d8dfc00e34bdee7b8d75fab7c3031fb3295851579d",
            "summary.csv": "b213b757f41efb27aeeafcadb781f235bef14d1b8e006501a025b6e84cd32b46",
            "flip_series.svg": "61ef66789438abec3a72203328bb9579badd87f66fba5696b6f15834c583a4d4",
        },
    ),
    "analyze_500_cycles": (
        ["analyze", "--ct-ratio", "100", "--cycles", "500", "--svg"],
        {
            "flip_series.csv": "ad856dac51de20c9c579362ad28bdd012770210a6a2bba139208a87c5baae950",
            "summary.csv": "33a30ce5a3ad8ce4ba408dc3873696bc31a1eca6ef9c865193963c440ec2b910",
            "flip_series.svg": "d95909455fb2eef6b4a0ad0f4b1f0d50094d2ad053005122caf6640a40fb4668",
        },
    ),
    # 2000 flips hold two or three points per pixel column, more points than
    # columns, yet no column holds five: the chart is drawn point for point.
    "analyze_2000_cycles": (
        ["analyze", "--ct-ratio", "100", "--cycles", "2000", "--svg"],
        {
            "flip_series.csv": "6cdb9e337eb24ca419b3c8350c47e3d866edb2b586b585e2245aed2fa1f64fb2",
            "summary.csv": "33a30ce5a3ad8ce4ba408dc3873696bc31a1eca6ef9c865193963c440ec2b910",
            "flip_series.svg": "5ae39f68f637efb9d48be8178f4170de944bd0a470ed9d2fdcc472f55973a6f3",
        },
    ),
    "sweep_ct": (
        ["sweep", "--axis", "ct", "--min", "0.1", "--max", "100", "--points", "25", "--svg"],
        {
            "sweep_ct.csv": "a6cd41841102c935869862dd29dbde1efd653914d60af24a580dcb2cab07de00",
            "sweep_ct.svg": "a38d71dd64d51e3a10f7b816966cfddda794fab7dbd03d9662f3ad2c1be53736",
        },
    ),
    # Log-spaced points on a linear axis put up to 90 points in one pixel
    # column, so the chart is drawn from its envelope.
    "sweep_ct_300_points": (
        ["sweep", "--axis", "ct", "--min", "0.01", "--max", "100", "--points", "300", "--svg"],
        {
            "sweep_ct.csv": "026683bcfd17521b34b9f47fecf48ef66311b3a31b4c603e58b2dc097364b1ca",
            "sweep_ct.svg": "b6b7168a5a115a8c6efd648309c4b0910391c968a65e6a1b3a2a89d406b1f7cd",
        },
    ),
    "sweep_vs": (
        ["sweep", "--axis", "vs", "--min", "0", "--max", "10", "--points", "25", "--svg"],
        {
            "sweep_vs.csv": "528874b39a5778640ccb25ae43f2b0002b41e70dfe8a864cb3744a33774369c5",
            "sweep_vs.svg": "cd69c339a6c6bd3831f81ecd13a39490847962192e51fae26eef4c91c75883a2",
        },
    ),
    "compare": (
        ["compare", "--ct-ratio", "2"],
        {
            "compare.csv": "2377671ab1b100b0f5964ea17b1beee5de238b9c728bb36b3d5560932245cee0",
        },
    ),
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_byte_identical(case, tmp_path):
    argv, digests = GOLDEN[case]
    out = str(tmp_path)
    assert main(argv + ["--out-dir", out]) == 0
    for name, expected in digests.items():
        assert _sha256(os.path.join(out, name)) == expected, name
