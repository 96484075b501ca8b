"""SHA-256 pins of what each command writes, on reduced-size runs.

Covers every data file, plot and manifest (minus its wall-clock duration
and the numpy and Python versions) of ``simulate`` and the three
``reproduce`` presets, plus the JSON that ``fit``, ``turnover`` and
``optimize`` print. A changed byte anywhere, in an output or in the
flags a manifest records, fails here.

The simulator's bytes depend on numpy's PCG64 and ``Generator.integers``
streams; the digests were recorded with numpy 2.4.6 on CPython 3.11.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from longtail.cli import main
from longtail.model import COPIER_BLOCK

SIMULATE = ["simulate", "--n", "300", "--mu", "0.01", "--steps", "200", "--seed", "7", "--y", "5"]
CASES = {
    "simulate": [SIMULATE],
    "reproduce-2left": [["reproduce", "--figure", "2left", "--seed", "3", "--targets", "0.5,2",
                         "--n", "100", "--steps", "150", "--runs", "2"]],
    "reproduce-2right": [["reproduce", "--figure", "2right", "--seed", "5", "--n-grid", "60,120",
                          "--mu-grid", "0.01,0.02,0.05", "--runs", "2", "--steps", "80", "--y", "4"]],
    "reproduce-3": [["reproduce", "--figure", "3", "--ab-ratios", "10,1000",
                     "--mu-grid", "0.001,0.01,0.1", "--alpha", "2.5"]],
    "reproduce-3-defaults": [["reproduce", "--figure", "3"]],
    "fit": [SIMULATE, ["fit", "--input", "{out}/cumulative_sales.csv", "--s-min", "2"]],
    "fit-defaults": [SIMULATE, ["fit", "--input", "{out}/cumulative_sales.csv"]],
    "turnover": [SIMULATE, ["turnover", "--input", "{out}/top_products.csv", "--y", "3"]],
    "optimize": [["optimize", "--A", "10", "--B", "1", "--mu", "0.25", "--alpha", "3.5"]],
    "optimize-capped": [["optimize", "--A", "1e4", "--B", "1", "--mu", "0.01", "--alpha", "0.5",
                         "--y-max", "1000"]],
}

GOLDEN = {
    "fit": {
        "stdout": "bfea29979dde2f1e37ea692d1a2c6281e37517ea24e4b3e3d47a05df109313b4",
    },
    "fit-defaults": {
        # "s_min": 1.0, as for --s-min 1: the default "1" is read by the float flag
        "stdout": "942ebdb1cab47f3e7f13a7cba27f6d95814cfc893cc70d7e1cb8428683cb6656",
    },
    "optimize": {
        "stdout": "85e16e7b2c02dd782c41c19fd244463c90dbecc970e7e22299bd5496f39997f5",
    },
    "optimize-capped": {
        "stdout": "ccd613ee3f7df7b9693e57fb7d2c28bd28d04546a729087acef65acc3387374e",
    },
    "reproduce-2left": {
        "exponent_fits.json": "213ca933a13948c6038b223c296606756c64098e13450482cf70b12a45fadfba",
        "manifest.json": "4d8c89c215fa59105c248bea046216ba2725ad12592f181660295f19d929efec",
        "sales_distribution.svg": "8cd49562fad566d5e09da54cd954ef2441200c77a8106ba4850c1dff67947d43",
        "sales_histogram.csv": "4abb131cb19576223b1fb400d9e796803f5f920e00c7df07caa58bfc9717a859",
        "sales_samples.csv": "f2d1e33ec1c66d90bae946fea54a58f4a3222d671d966985bd00c908b96b1296",
    },
    "reproduce-2right": {
        "manifest.json": "1ddfb0e23ce1adc39e17d45fdee6fdfd8730c3e5f0f6631e6002b4761abd26c1",
        "turnover_by_mu.csv": "792dd66ef0083a3e721c0809042f540081c916fcae76b973fc110af0be5c0bbd",
        "turnover_fit.json": "f05d98564d3a5cacddce97fddc51d5675c4ddec5627a01033f77393e0c0f8160",
        "turnover_sweep.csv": "a0880a2ea6f14b1cc3917b8f0d094e3aaa783c8c338f8eb01b6373323edcfa3e",
        "turnover_sweep.svg": "5b1af17220aae5bada53892ea816e8cd32610f97ca802fa6e91fb2bf5c54af79",
    },
    "reproduce-3": {
        "inventory_curves.csv": "4b13cc399afdf959f37ad5bd86c2ecb9ab028ae2581ced0313707b56b237e8aa",
        "inventory_curves.svg": "958a42e6b382880705abcce4fea9bd24be59ea89b6b77a2b31a56f53d8616e00",
        "manifest.json": "51aa84bb1665829cbf12a3a42a9acfd8d5f9ad9fca10eb932063c81b9d843077",
    },
    "reproduce-3-defaults": {
        "inventory_curves.csv": "bddc38d26d56574142dc4150408f64a72d02b7668742220d87c0e690ae351649",
        "inventory_curves.svg": "78baa9d8f3c78b5ad4e037f38797465adc6cb3c2e42824ac80d30488fadbe55b",
        "manifest.json": "156f91f5de0e6c2bd549af974ff4b350d706c9e8a2338d0d2da4b6d78550ff87",
    },
    "simulate": {
        "cumulative_sales.csv": "a410d5e1d56c6670c70da456d6c9af1e80b1313d8ee29ca0e9314fe3d40786cc",
        "manifest.json": "21bedbcb0b859a992e18c8c99fb641848381910a1aebf145a517817d54ec9c15",
        "top_products.csv": "f0ef5841c275395da1974e5f34d7dcf1173d90a91682afa1d13e46d49fa127c1",
        "turnover.csv": "d8c12ec9d4586412c4ae86c240b10931ad13d32e8f296b81b41ceafcac24a4d6",
    },
    "turnover": {
        "stdout": "d7bb0a386cb519a3facc043a04d4406e569c4400c795c2239804b1c51ea829f4",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(case: str, tmp_path) -> dict[str, str]:
    """Run a case's commands and hash what the last one wrote or printed."""
    out = tmp_path / "out"
    stdout = io.StringIO()
    for argv in CASES[case]:
        argv = [a.format(out=out) for a in argv]
        if argv[0] in ("simulate", "reproduce"):
            argv += ["--out-dir", str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, argv
    if argv[0] not in ("simulate", "reproduce"):
        return {"stdout": _sha(stdout.getvalue().encode())}
    result = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("duration_seconds", "timings", "numpy_version", "python_version"):  # vary by run and host
        del manifest[key]
    result["manifest.json"] = _sha(json.dumps(manifest, sort_keys=True).encode())
    return result


# the CLI reports "objective still increasing" on one stderr line, not as a warning
@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_recorded_digests(case, tmp_path):
    assert digests(case, tmp_path) == GOLDEN[case]


def test_numpy_streams_match_the_recorded_ones():
    # step draws with Generator.random (the innovator coin) and .integers (the
    # copiers); every digest above rests on these two PCG64 streams
    first = (np.random.default_rng(0).random(), np.random.default_rng(0).integers(0, 500, size=8).tolist())
    assert first == (0.6369616873214543, [425, 318, 255, 134, 153, 20, 37, 8]), (
        f"numpy {np.__version__} draws {first} from default_rng(0): its streams changed, so the digests"
        " above (recorded with numpy 2.4.6) fail for that cause, not for a change in longtail"
    )


@pytest.mark.parametrize("high", [500, 100_000, 2**40])
def test_integers_drawn_in_blocks_equal_one_call(high):
    # step draws its copiers in blocks of COPIER_BLOCK; its bytes equal those
    # of one integers call only because the stream keeps no buffer per call,
    # below 2**32 (32-bit draws) and above it alike
    whole, blocks = np.random.default_rng(11), np.random.default_rng(11)
    size = 3 * COPIER_BLOCK + 5
    drawn = np.concatenate([blocks.integers(0, high, size=min(COPIER_BLOCK, size - lo))
                            for lo in range(0, size, COPIER_BLOCK)])
    assert np.array_equal(whole.integers(0, high, size=size), drawn)
    assert whole.random() == blocks.random()  # and the generators are left in step
