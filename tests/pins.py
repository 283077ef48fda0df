"""sha256 pins of command output, keyed by host profile: the kernel numpy's bundled OpenBLAS
picks for the CPU, and whether numpy dispatches its X86_V3 (AVX2) loops.  Both change the
last bits of sampled output.  A digest under ``"*"`` holds on every profile, and
``python tests/take_pins.py`` prints the digests the table lacks.
"""

import contextlib
import ctypes
import functools
import hashlib
import io
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

import quasilogic
from quasilogic import cli, survey
from quasilogic.logic import CELLS

# the environment of each profile a row needs a digest for, on an AVX-512 host; Zen reads Haswell
PROFILES = {
    "SkylakeX/X86_V3": {},
    "Haswell/X86_V3": {"OPENBLAS_CORETYPE": "Haswell"},
    "Sandybridge/X86_V2": {"OPENBLAS_CORETYPE": "Sandybridge",
                           "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


@functools.cache
def profile() -> str:
    """This process's host profile, such as ``"SkylakeX/X86_V3"``."""
    core = "unknown BLAS"
    for library in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"):
        corename = ctypes.CDLL(str(library)).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return f"{core}/{'X86_V3' if __cpu_features__.get('X86_V3') else 'X86_V2'}"


class Pin(NamedTuple):
    """``argv``'s output at ``version``, without ``fields`` if any.  An argument ending in
    ``.csv`` names a bundled data file; a tuple of two count groups, a count file of them."""

    argv: list
    version: str
    fields: tuple
    digests: dict


def label(pin: Pin) -> str:
    """The row's version and command line, a count file shown by its number of respondents."""
    shown = [f"<{sum(map(sum, arg))} respondents>" if isinstance(arg, tuple) else arg
             for arg in pin.argv]
    return " ".join([pin.version, *shown])


def output(pin: Pin, directory: Path) -> str:
    """stdout of the row's command, run in this process with its count files in ``directory``."""
    argv = []
    for index, arg in enumerate(pin.argv):
        if isinstance(arg, tuple):
            path = directory / f"counts_{index}.csv"
            table = survey.SequentialCountTable(*(dict(zip(CELLS, group)) for group in arg))
            path.write_text(table.to_csv(), encoding="utf-8")
            arg = path
        elif arg.endswith(".csv"):
            arg = Path(quasilogic.__file__).parent / "data" / arg
        argv.append(str(arg))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    assert code == 0, f"{label(pin)} exited {code}"
    return out.getvalue()


def without(out: str, fields) -> str:
    """JSON output re-serialised as the CLI writes it, without its version and ``fields``:
    top-level keys, ``config.KEY`` (dropped if present) or ``CHECK NAME:KEY``."""
    data = json.loads(out)
    del data["config"]["version"]
    checks = {check["name"]: check for check in data.get("checks", [])}
    for field in fields:
        if field.startswith("config."):
            data["config"].pop(field.removeprefix("config."), None)
        elif ":" in field:
            name, key = field.split(":")
            del checks[name][key]
        else:
            del data[field]
    return json.dumps(data, indent=2) + "\n"


def digest(pin: Pin, out: str) -> str:
    """sha256 of ``out`` at the row's version, or without its version and fields if any."""
    if pin.fields:
        out = without(out, pin.fields)
    else:
        out = out.replace(f'"version": "{quasilogic.__version__}"', f'"version": "{pin.version}"')
    return hashlib.sha256(out.encode()).hexdigest()


def expected(pin: Pin, host: str) -> str | None:
    return pin.digests.get(host, pin.digests.get("*"))


# The fields that 0.3.0 changed in their last bits, where kd and verify read the
# Jordan route, Tr((rho∘A)B) since 0.3.0 (and kd no longer takes --trials).
KD_CHANGED = ("config.trials", "max_gap_to_logical_joint")
# The fields 0.11.0 changed in survey's JSON: the bootstrap intervals became exact
# quantiles in place of percentiles of drawn resamples, and the diagnostics are new.
BOOTSTRAP_CHANGED = ("bootstrap", "diagnostics")

KD = ["kd", "--dim", "24", "--seed", "5"]
# two count files past the bundled files' few hundred atoms (the 0.14.0 rows below)
EVEN_QUARTER_MILLIONS = ((250_000,) * 4, (250_000,) * 4)
LOPSIDED = ((20, 5, 0, 9), (10**6 - 3, 1, 1, 1))
VERIFY_37 = ["verify", "--dim", "2-4", "--trials", "37", "--seed", "7", "--format", "json"]
JSON = ["--format", "json"]

PINS = [
    # 0.1.0: commands that draw nothing from the samplers that changed in 0.2.0
    Pin(KD + JSON, "0.1.0", KD_CHANGED, {
        "SkylakeX/X86_V3": "9abf817672f8c3a91f1deea0a4fd963e7230e81e35344992fdc24d16c2108e80",
        "Haswell/X86_V3": "0d322d9353ed37566c73a1ca7ef7b757705ecb2b86d5472ac8ecd163a9427980",
        "Sandybridge/X86_V2": "73f3b699228aac599656cc058120505bbdc2020603a0b75ff591094c8053e0be",
    }),
    Pin(["demo"] + JSON, "0.1.0", (), {
        "SkylakeX/X86_V3": "f6a82446a44f41e996359356a22302b25f7662f3db0826d22dbd490621b23e8d",
        "Haswell/X86_V3": "f6a82446a44f41e996359356a22302b25f7662f3db0826d22dbd490621b23e8d",
        "Sandybridge/X86_V2": "5c8cbb95d1d362ca37d4fd323617a76cf85920742bca75868ec9f3ee2d617d03",
    }),
    Pin(["survey", "synthetic_n100.csv"] + JSON, "0.1.0", BOOTSTRAP_CHANGED, {
        "*": "52acfac2bbe889baa1f02d98ca951dda0c0e0607c524d083957fd90f3921048d",
    }),
    Pin(["survey", "clinton_gore_1997.csv"] + JSON, "0.1.0", BOOTSTRAP_CHANGED, {
        "*": "727dd12cd5b7166c125fc26933bfebdbcca6de49a4db1ac87cb69974adf2b162",
    }),
    # 0.11.0: survey's output since its bootstrap intervals became exact
    Pin(["survey", "synthetic_n100.csv"], "0.11.0", (), {
        "*": "900b0630bb9ca962bd3470bc9aaed830412b3d025be94b2b595da16965601d0c",
    }),
    Pin(["survey", "clinton_gore_1997.csv"], "0.11.0", (), {
        "*": "e6f54d5e680b903d30ab276b660556be3203b9c2a55ed6f8aa802ef85f426600",
    }),
    Pin(["survey", "synthetic_n100.csv"] + JSON, "0.11.0", (), {
        "*": "34b5d628c1426d822df910ff137b11bdcf7d0487b89d28645a554783e9f16e01",
    }),
    Pin(["survey", "clinton_gore_1997.csv"] + JSON, "0.11.0", (), {
        "*": "e9f23032843dbb56c6d90ea0e588418a5e8d517644e70488877fa1761e9b6d13",
    }),
    # 0.14.0: survey's JSON past the bundled files' few hundred atoms: 250,000 per cell in
    # both groups, whose group pmfs take FFTs of 16,384 bins, and a group of 34 beside one
    # of 10**6, a fine lattice about 30,000 times finer than the coarse one
    Pin(["survey", EVEN_QUARTER_MILLIONS] + JSON, "0.14.0", (), {
        "*": "3e880913004064cdbe13be07c24e3f256bf24c19e6261cc0303af9a8c5b5f3e7",
    }),
    Pin(["survey", LOPSIDED] + JSON, "0.14.0", (), {
        "*": "4f8bb03c46aebbdf3f91ff8fed4abfcbcd43d8d1f09252db0d30baf6568892c0",
    }),
    # kd's CSV output, whose fields are plain floats since 0.3.1
    Pin(KD + ["--format", "csv"], "0.3.1", (), {
        "SkylakeX/X86_V3": "ae2ba5e4c189408c9616afd27211bad69c228a5b57639d2e5eff72cfa80d164c",
        "Haswell/X86_V3": "a01d8759f16436cf5b7bc3904a58d61e5a5a099db4c56293252761f30f742416",
        "Sandybridge/X86_V2": "96b2746a6a8b6929a2692355b6db4e8190c65d08935d80a5ce79b8004ae7f9fe",
    }),
    # 0.18.0: survey's CSV, which prints only point estimates, and its text past the bundled
    # files, whose flags and diagnostics read the intervals
    Pin(["survey", "synthetic_n100.csv", "--format", "csv"], "0.18.0", (), {
        "*": "3a74d8538f584c813ed7d812e81c2bd473ed1a90c882b3eb24cd022c50aa3370",
    }),
    Pin(["survey", "clinton_gore_1997.csv", "--format", "csv"], "0.18.0", (), {
        "*": "1f91f415144f5f8ac705ce1ef2727e21a08afdc59880f7ff602abf777403b4dc",
    }),
    Pin(["survey", EVEN_QUARTER_MILLIONS, "--format", "csv"], "0.18.0", (), {
        "*": "8ed192c33bb74db3d564f916d5d1d5172661ec97b7fa2ef6340fc49bcdec6dea",
    }),
    Pin(["survey", LOPSIDED, "--format", "csv"], "0.18.0", (), {
        "*": "1ab385a19f1ba5207412cc44cf37010cb44048d86fd75c9dbaf95ee4758aaa0c",
    }),
    Pin(["survey", EVEN_QUARTER_MILLIONS], "0.18.0", (), {
        "*": "8a714274ec4725d4d3bf05fc9d9142052eaf88fecb266ebbd8d84b4a9d6cbc98",
    }),
    Pin(["survey", LOPSIDED], "0.18.0", (), {
        "*": "b2d6745b39333fad9a0e876ca36a855935cb31e7bc7b7562406a2b43d7474d9d",
    }),
    # 0.18.0: the formats no row above covers
    Pin(["truth-table"], "0.18.0", (), {
        "*": "20ef10a24b4fc82dcfb9ca809b4b3de09ff4e1c477fad18cb56e191a7abd4899",
    }),
    Pin(["truth-table"] + JSON, "0.18.0", (), {
        "*": "b28b0293427fab5cd0be790795c2d7063fca5d926f954cecf531e2921bf8256c",
    }),
    Pin(["truth-table", "--format", "csv"], "0.18.0", (), {
        "*": "9f30daf0da18c4b64be2c98311357ad18eca81a43abf06c2e4c70bb03942e241",
    }),
    Pin(["demo"], "0.18.0", (), {
        "*": "09a284f67f7ce3f57ba1a3a4b08173319c1eaedce81a4b0ec4c559fef0f7d036",
    }),
    # 0.22.0: jordan-verify's output since the samplers draw only the parameters they use,
    # every float of which depends on the samplers and the kernels
    Pin(["jordan-verify"] + JSON, "0.22.0", (), {
        "SkylakeX/X86_V3": "8070d82486cfb66b87b50fc964f14bd54bdfe017a13446e5916e79eb1b3e665c",
        "Haswell/X86_V3": "f1a5a07ccbc346316a0bbcfd4fd0a8d4847e23a00742ab679ef14580ce39ebe7",
        "Sandybridge/X86_V2": "60ec25d3a62adced6e734cd49a8e16412238acd726963832870826a3690ab800",
    }),
    Pin(["jordan-verify", "--format", "text"], "0.22.0", (), {
        "SkylakeX/X86_V3": "fba34d114d11e052e5ab57df6648fdcf08a23ed0ba9b21a4364168b368a2ca19",
        "Haswell/X86_V3": "496f40930b0fa79b9e02aea6614790bedbb35ca1de8ef3411731fc1140222819",
        "Sandybridge/X86_V2": "55e5542ac7b48802556048c786c6be49714fd0c96776e27885396171ee059703",
    }),
    # 0.23.0: kd's JSON and text output (kd's text holds no version string) and verify's output
    # since the Jordan route contracts each pair with one BLAS dot product, which moves the last
    # bits of kd's max_gap_to_logical_joint and of verify's Jordan-route residuals
    Pin(KD + JSON, "0.23.0", (), {
        "SkylakeX/X86_V3": "786f16a3ab6e665206c12246493b92101eb96b520e412a6d0bdc83bcbc80adbd",
        "Haswell/X86_V3": "e6e9d4304d3187b393fd0d66bacfc955a92a2e4609e92759aced08e546ad9830",
        "Sandybridge/X86_V2": "f1ff8c159f79278c46a017d5263ee321eb927a503751c4dc5d9a6bebf40fcdda",
    }),
    Pin(KD, "0.23.0", (), {
        "SkylakeX/X86_V3": "bf84e3fbc2112a3b2cfb451582b8ac51aec81fcc97e3288d3397be7930d5ce05",
        "Haswell/X86_V3": "614a265131a99a09dc10b0dc440ccc42507e17ed23c92ef0fc269c2d0ab35ca4",
        "Sandybridge/X86_V2": "9d884dbce4df0f72ed4fc03eeeb368429cf4e5c235d5061796e9edeed020f725",
    }),
    Pin(["verify"], "0.23.0", (), {
        "SkylakeX/X86_V3": "e38ca3fc1483cb555a47402bd7d1d222b724c0d6c4078dcd8393a5970da78259",
        "Haswell/X86_V3": "bcb5d9a755c348fb334a30cd0e916c122b007480bc3a854264c950190539bb9d",
        "Sandybridge/X86_V2": "965840d4a188d88d55c7b37386fe0af1cce678fa0c1ae78d4ef6f80b34204ee8",
    }),
    Pin(["verify"] + JSON, "0.23.0", (), {
        "SkylakeX/X86_V3": "de326f64522ad5f671e8c24e37fad4f785a1a3570af769f8eca8a24fc0891dce",
        "Haswell/X86_V3": "a01dd24a98c941a1746222219feb99326d11e5de05dacc456f629b1daa17eddb",
        "Sandybridge/X86_V2": "e2a752ea5344b9d65fe28e90c3faf02da4df24a175402e8c2c1096dd47f69857",
    }),
    Pin(VERIFY_37, "0.23.0", (), {
        "SkylakeX/X86_V3": "ec16d8a072409a93e12748545a262ad8770a3969a186aa2fdd9f4254f08a886e",
        "Haswell/X86_V3": "88c8d0fbb8f47bac31a632ad70e5073c3bef405746797006b7b0d0d9e87f757f",
        "Sandybridge/X86_V2": "e3600b88e8d3628311a65ec046c1784c9ec053176bb78fa0579500b0b7aadd9b",
    }),
]
