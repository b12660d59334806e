"""Every artifact of eight runs, pinned byte for byte in one table.

Each config maps to the sha256 of its `metrics.csv`, `trace.csv`,
`recon.pgm`, and `summary.json` without its `runtime_seconds` line.  The
runs take two fresh interpreters at once, four configs each, with
`OPENBLAS_NUM_THREADS=1` set before numpy loads, since `ct-paper`-size
inner products round differently by thread count.  A change that moves
bytes on purpose edits `DIGESTS` in the same diff and says why; any other
move fails here.

Run this file as a script, `python tests/test_artifact_bytes.py OUT_DIR
[NAME ...]` with `lkreg` importable, to print the current digests of the
named configs (default: all) as JSON.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

# config name -> make_config keywords, all at seed 1; the custom-linear runs
# read the ct-desk matrix and phantom from text files, as `custom-kaczmarz` does
_KACZMARZ = dict(problem="custom-linear", penalty="quadratic", constraint="nonneg", mu=1.0,
                 n_blocks=30, noise_rel=0.001, n_max=20000)
CONFIGS = {
    "ct-desk-400": dict(preset="ct-desk", n_max=400),
    "ct-desk-accelerated": dict(preset="ct-desk", mode="accelerated"),
    "ct-desk-accelerated-5-blocks": dict(preset="ct-desk", mode="accelerated", n_blocks=5),
    "ct-paper-4": dict(preset="ct-paper", n_max=4),
    "pde-paper-20": dict(preset="pde-paper", n_max=20),
    "pde-desk-noisy-accelerated": dict(preset="pde-desk", mode="accelerated", noise_rel=0.01,
                                       n_max=20000),
    "custom-kaczmarz-every-1": dict(_KACZMARZ, metric_every=1),
    "custom-kaczmarz-every-3": dict(_KACZMARZ, metric_every=3),
}
ARTIFACTS = ("metrics.csv", "trace.csv", "recon.pgm", "summary.json")
# the configs of each interpreter, about 1.6 and 2.0 s of runs on one core
GROUPS = (("ct-desk-400", "ct-desk-accelerated", "ct-desk-accelerated-5-blocks", "pde-paper-20"),
          ("ct-paper-4", "pde-desk-noisy-accelerated", "custom-kaczmarz-every-1",
           "custom-kaczmarz-every-3"))

DIGESTS = {
    "ct-desk-400": {
        "metrics.csv": "9033a2c411c6dc565c555bc7bfaf39ec74a56659a033fd8c6e04aecb47840cfd",
        "trace.csv": "5102cd21e9087f732bb1667ff787480735f284ed2cc42b150ef9720fc948ecdc",
        "recon.pgm": "49defcb64f267127c2e28c810a4ef165e348aa82dc8526c1acd386c115ab8d75",
        "summary.json": "0f9b3c5d224a7e4e29aec64b07609fa265c04ff990c0f9319ff8d894ddb9ee67",
    },
    "ct-desk-accelerated": {
        "metrics.csv": "199705132f79bb269bfef55f5b867e11db0b43b733d8f43aaa9f7e22fb77a6de",
        "trace.csv": "793e5749df596d0634dfd1048c37cf756a4ec42d376a7bdb93788ec7cb61bb7c",
        "recon.pgm": "8e77edef09266c0874aa094e38ea152bce4646729724e0b3a6a13533f53b89a3",
        "summary.json": "6f8116608abfe80a58ef7faea39cc1674414c3e4eebb14fa8601b0ad6bfc0ec3",
    },
    "ct-desk-accelerated-5-blocks": {
        "metrics.csv": "638b20da8e53ccc9913e9a92b1b841bda341b8feda6fd5f7be04230640617868",
        "trace.csv": "83434607e72638b4709d59dcc629b845692ca1b61b8e19c93ec518a704af0b70",
        "recon.pgm": "ba2a73092ba7bcf940d04d99f737b25e91443f40a9ac029817156bdc908aaaa1",
        "summary.json": "6a3fb0912ad0e7bad017f0267b0c6c3a44ae99f6fe3496349cd4b3599d8873ce",
    },
    "ct-paper-4": {
        "metrics.csv": "428ee532eefa3737e4823ec73f4abd986da1763083fc4d22bff8c3847e475ec0",
        "trace.csv": "0c6b43d1aca2ac350f8fe5b36d049c6cddd9b32fecec66e6a68d77fb076aa020",
        "recon.pgm": "533ba688d52a7c86ac097fee636b366089380c61dcacc69f6e359a2b9ef5216c",
        "summary.json": "a442b4a574c540ba2f1a91a22c7a1b862f4ed9822555c4371d9448b00029c1be",
    },
    "pde-paper-20": {
        "metrics.csv": "648897c6fbf1a14a48d0d1bf84c7a7a8a21ddf99189477d7fc059ac40f305d25",
        "trace.csv": "b7932e428a001596368c2c57c994e9a0c4b16a7a0b679df1cd1c5a184ded893e",
        "recon.pgm": "8cc30b5b39bb976a8673411bec545151becb04231bdbd65787d1401abbeda9fb",
        "summary.json": "d2e926b81f167d16d080e82cd13cf3e5e951f3661a7307ed8cfac53e39b5ac7e",
    },
    "pde-desk-noisy-accelerated": {
        "metrics.csv": "b4f2fa5e1b922d21a641e606cdf3fcf13468bd7f5d43f8ba10dd8eee6e310980",
        "trace.csv": "7f13827a93d93fb2fd3842e539b7f729e1d2cd202d9e503003c1fc5f65fb3708",
        "recon.pgm": "8bb9958b3e7458da5b893092f8272d7bda25745e3d2ce29331af02e4707d1854",
        "summary.json": "79e944ad3284e0d7506e7569f2febefa6a7f4c8e89303178cb54952fb9c9a829",
    },
    "custom-kaczmarz-every-1": {
        "metrics.csv": "251d012ffa0c065e54edd05f1f63fccc0dd23b9cf4f6fa6534d14dda2b38c8cd",
        "trace.csv": "0bf4e19dcc76cc96bcca2a6f314ca92a9502358f9bb0697e7dd30f562efadc2d",
        "recon.pgm": "6a61bb894f63bbae44c2c0db9e5b0063cee5864eca3e5ac4b79a87bc3651fd6a",
        "summary.json": "e22ea95de63e64d5f167d36b52804be90cda39249aa64f20b7f1e166520a039f",
    },
    "custom-kaczmarz-every-3": {
        "metrics.csv": "2348f7b81bc8324d7fd0bab95c2b6a7b544574f0fda55551c74bf14169cd322d",
        "trace.csv": "6a26d97194e2708dd3428005b0051d950db1ccc99a87d6c5006f382c7e0a25ff",
        "recon.pgm": "6a61bb894f63bbae44c2c0db9e5b0063cee5864eca3e5ac4b79a87bc3651fd6a",
        "summary.json": "e22ea95de63e64d5f167d36b52804be90cda39249aa64f20b7f1e166520a039f",
    },
}


def artifact_digest(path):
    """sha256 of a file; summary.json loses its `runtime_seconds` line first."""
    lines = path.read_bytes().splitlines(keepends=True)
    if path.name == "summary.json":
        lines = [line for line in lines if not line.lstrip().startswith(b'"runtime_seconds"')]
    return hashlib.sha256(b"".join(lines)).hexdigest()


def run_all(out_root, names):
    """Run the named configs under `out_root` and return their artifacts' digests."""
    from lkreg import harness, tomo

    out_root = pathlib.Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    inputs = {"matrix_path": str(out_root / "matrix.txt"),
              "truth_path": str(out_root / "truth.txt")}
    if any(CONFIGS[name].get("problem") == "custom-linear" for name in names):
        geom = harness.ct_geometry(harness.make_config(preset="ct-desk"))
        tomo.save_matrix_coo(inputs["matrix_path"], tomo.build_parallel_tomo(geom))
        harness.save_grid(inputs["truth_path"], tomo.shepp_logan(geom.q))
    digests = {}
    for name in names:
        keywords = CONFIGS[name]
        if keywords.get("problem") == "custom-linear":
            keywords = dict(keywords, **inputs)
        out = out_root / name
        harness.run_experiment(harness.make_config(seed=1, **keywords), out_dir=out)
        digests[name] = {artifact: artifact_digest(out / artifact) for artifact in ARTIFACTS}
    return digests


def test_every_artifact_keeps_its_bytes(tmp_path):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    assert sorted(name for group in GROUPS for name in group) == sorted(CONFIGS)
    runs = [subprocess.Popen([sys.executable, __file__, str(tmp_path / str(k)), *group], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for k, group in enumerate(GROUPS)]
    try:
        outputs = [run.communicate(timeout=120) for run in runs]
    finally:
        for run in runs:
            run.kill()
    digests = {}
    for run, (out, err) in zip(runs, outputs):
        assert run.returncode == 0, err
        digests.update(json.loads(out))
    assert digests == DIGESTS


if __name__ == "__main__":
    json.dump(run_all(sys.argv[1], sys.argv[2:] or list(CONFIGS)), sys.stdout, indent=4)
    print()
