"""SHA-256 pins of what each command writes, on reduced-size runs.

Covers every data file, plot and manifest (minus its wall-clock duration
and the numpy and Python versions) of ``simulate`` and the three
``reproduce`` presets, plus the JSON that ``fit``, ``turnover`` and
``optimize`` print. A changed byte anywhere, in an output or in the
resolved configuration a manifest echoes, fails here.

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

SIMULATE = ["simulate", "--n", "300", "--mu", "0.01", "--steps", "200", "--seed", "7", "--y", "5",
            "--x0", "150", "--burn-in", "3"]
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
        "stdout": "54eacb3b271f9b1b4ea1a0902967ce5a7aab4e9b60ba5f4582d4504b3ecea80c",
    },
    "fit-defaults": {
        "stdout": "729ad8ff3f6f08cfa427f43dc75cf0e4891e04c34ea7502c3cc66c4a290f6a74",
    },
    "optimize": {
        "stdout": "85e16e7b2c02dd782c41c19fd244463c90dbecc970e7e22299bd5496f39997f5",
    },
    "optimize-capped": {
        "stdout": "ccd613ee3f7df7b9693e57fb7d2c28bd28d04546a729087acef65acc3387374e",
    },
    "reproduce-2left": {
        "exponent_fits.json": "213ca933a13948c6038b223c296606756c64098e13450482cf70b12a45fadfba",
        "manifest.json": "056aed9c2ee539ab991d837d5e365e3c61ccda51aba7e424c02f6f125e6764c0",
        "sales_distribution.svg": "8cd49562fad566d5e09da54cd954ef2441200c77a8106ba4850c1dff67947d43",
        "sales_histogram.csv": "4abb131cb19576223b1fb400d9e796803f5f920e00c7df07caa58bfc9717a859",
        "sales_samples.csv": "f2d1e33ec1c66d90bae946fea54a58f4a3222d671d966985bd00c908b96b1296",
    },
    "reproduce-2right": {
        "manifest.json": "b0388e54ae967f1997316394b98d295e0668c6731b070178b62b5cde4132d197",
        "turnover_by_mu.csv": "792dd66ef0083a3e721c0809042f540081c916fcae76b973fc110af0be5c0bbd",
        "turnover_fit.json": "f05d98564d3a5cacddce97fddc51d5675c4ddec5627a01033f77393e0c0f8160",
        "turnover_sweep.csv": "a0880a2ea6f14b1cc3917b8f0d094e3aaa783c8c338f8eb01b6373323edcfa3e",
        "turnover_sweep.svg": "5b1af17220aae5bada53892ea816e8cd32610f97ca802fa6e91fb2bf5c54af79",
    },
    "reproduce-3": {
        "inventory_curves.csv": "4b13cc399afdf959f37ad5bd86c2ecb9ab028ae2581ced0313707b56b237e8aa",
        "inventory_curves.svg": "958a42e6b382880705abcce4fea9bd24be59ea89b6b77a2b31a56f53d8616e00",
        "manifest.json": "0fbe5c513f872f2544e6daead6e704d9c23aa19b130b73cc4cce2f60fbdcb122",
    },
    "reproduce-3-defaults": {
        "inventory_curves.csv": "bddc38d26d56574142dc4150408f64a72d02b7668742220d87c0e690ae351649",
        "inventory_curves.svg": "78baa9d8f3c78b5ad4e037f38797465adc6cb3c2e42824ac80d30488fadbe55b",
        "manifest.json": "75dbaef19a1006c7918eda0ea94c1498f7c82128b47678cfd69b8350d030ff4c",
    },
    "simulate": {
        "cumulative_sales.csv": "6d73e663fa0a4d1eb264e247dc745a472d4b5080d0275a7a195d05e78acb6359",
        "manifest.json": "425dc9459d8ce5abfd334afdcfb837e596ba4971ef0141b2e310507b0ea7f628",
        "top_products.csv": "669b2dca69d346d343a3aa0719ec4b4a42fe7c0c68097f61432f6913489cd590",
        "turnover.csv": "672d0bdf83e4c5543f81ee5b16d02cdf87460dded9fc0e568a8ecbe3270c6d44",
    },
    "turnover": {
        "stdout": "f4014b7736781943b3dd9f3e7bad06f3055cc3472f5be11ec989c6ae9f03e692",
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
