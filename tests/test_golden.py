"""Byte lock on emitted models: SHA-256 of the LP, MPS and DOT text.

Each case runs ``arcsched model`` on a seeded instance and hashes what it
writes. Any change to a single byte of these outputs (variable names or
order, bounds, integrality sections, number formatting, arc sets) fails
here, so a refactor that claims unchanged output can prove it.
"""

import hashlib

import pytest

from arcsched.cli import main
from arcsched.instance import generate_instance, write_instance

INSTANCES = {  # label: (n, m, p_max, w_max, seed)
    "n8m2": (8, 2, 10, 10, 1),
    "n10m3": (10, 3, 5, 4, 2),  # few distinct (p, w): types merge
    "n9m2": (9, 2, 6, 6, 7),
}

# (form, flags): outputs hashed; the flow forms also write DOT and MPS
CASES = [
    ("eaf", ()),
    ("eaf", ("--no-windows",)),
    ("eaf", ("--no-types",)),
    ("eaf", ("--no-tprime",)),
    ("af", ()),
    ("ti", ()),
    ("pti", ()),
    ("ciqp", ()),
]


def digests(tmp_path, label: str, form: str, flags: tuple[str, ...]) -> dict[str, str]:
    """SHA-256 hex digests of every file ``arcsched model`` writes for one case."""
    inst_file = tmp_path / f"{label}.txt"
    inst_file.write_text(write_instance(generate_instance(*INSTANCES[label])), encoding="utf-8")
    flow = form in ("af", "eaf")
    files = {}
    for fmt in ("lp", "mps") if flow else ("lp",):
        out = tmp_path / f"{label}_{form}.{fmt}"
        argv = ["model", "--in", str(inst_file), "--form", form, "--format", fmt, "--out", str(out), *flags]
        files[fmt] = out
        if flow and fmt == "lp":
            files["dot"] = tmp_path / f"{label}_{form}.dot"
            argv += ["--dot", str(files["dot"])]
        assert main(argv) == 0
    return {kind: hashlib.sha256(path.read_bytes()).hexdigest() for kind, path in files.items()}


# The eaf, ti, pti and ciqp digests were recorded before the straight
# network was folded into the eaf builder and prove that fold changed none
# of their bytes; the af digests lock its output as eaf with every
# reduction off.
GOLDEN = {
    ("n10m3", "eaf", ()): {
        "lp": "cdcb9d7d6e26a0681b180f68098f3a10c3351c127a424f49ec50dfa1c8b212f5",
        "dot": "6c5d95838bfb9a98166aee4bcc5f66da3377b1b8699e156bf2953dde2179f313",
        "mps": "cac502b5cea0fdf07a5fec9380d8801e7a355b15c3487ca13555c5a650db8d37",
    },
    ("n8m2", "eaf", ()): {
        "lp": "76254395ea782dbbc17542268cb4e2815afc5893b23f2193d757d2706e7ed49f",
        "dot": "ccbf2e9787eb2659acf722b70f8e02688ddb7f75815a9503b913ebfa2e59e9a4",
        "mps": "344a58f380ae6db83c52f7838fa79bf70ac8b9b95dc82550ac8557f45d6d2513",
    },
    ("n9m2", "eaf", ()): {
        "lp": "e920c4d5ad0c06cbc6e7b3ed15c63bd7fb92c499087e8733ed2fab08e90c045c",
        "dot": "c0076423cec20322fcf274731714026c5a263631b50d3f8273ea40401a297fe4",
        "mps": "8c41457171a916c835c2e960d573b166548f9f25b497f875a98ec8c43166366b",
    },
    ("n10m3", "eaf", ("--no-windows",)): {
        "lp": "095c3304bafbe4bd86b8db4e75da3ed02b6c61b27f1cc1f0dc6c7eacc15a2567",
        "dot": "dfac4f5e60a28eeac24262dd0be4cddef05036fe5c0e93856b59529d1571c883",
        "mps": "a33df494ebdcfd466017400d44a218929c25b743cf2e2c155aab5f27d36e482c",
    },
    ("n8m2", "eaf", ("--no-windows",)): {
        "lp": "5db770ea93961ec21d94ff80a5fc4157e94409d05c31ec50a7b38526d28e83c5",
        "dot": "a07a5a2e0ee8214c1668a126aa8d8b2d3d7537d51a83f9d975e802be197a369b",
        "mps": "c5ee4330f7a7935a540ca8fcc213d7de1d67b5503cbab02316f80d18a3e15347",
    },
    ("n9m2", "eaf", ("--no-windows",)): {
        "lp": "9d3b553858efb8e4743d67e0680570e20d85a96756bdf69961fbcf40a86e42f9",
        "dot": "9cbb896018558802fc9720f673645329c288374baf649ed5c4c28dc6dabc4976",
        "mps": "fcf53baa7d84da78b90bf9e111a5539c2048985082f1c5b2aba548605cfd6cbd",
    },
    ("n10m3", "eaf", ("--no-types",)): {
        "lp": "0dfe180d54c942767edc8e561f7bee0991a028d1bef6a689d2aabe0b86e86085",
        "dot": "8de1e367fb33eede1d172b7f8b8a40b1ac0cfb53a87a27cb6a33a0ea8ebab4e5",
        "mps": "1cf2c100d05ebdc9ba2e12fb877cc115ccc4b14a91fb54a8854aec85f226122b",
    },
    ("n8m2", "eaf", ("--no-types",)): {
        "lp": "76254395ea782dbbc17542268cb4e2815afc5893b23f2193d757d2706e7ed49f",
        "dot": "ccbf2e9787eb2659acf722b70f8e02688ddb7f75815a9503b913ebfa2e59e9a4",
        "mps": "344a58f380ae6db83c52f7838fa79bf70ac8b9b95dc82550ac8557f45d6d2513",
    },
    ("n9m2", "eaf", ("--no-types",)): {
        "lp": "0d981258ebf8a6ea93b08d801e6f28f64f373742790c65b0dd2ebd5b3a840db2",
        "dot": "607162151e5ec3301d0d2fd5cc2ccadc4916123f68a8902e2fbbd3f07ed03bf7",
        "mps": "b90cc227b1b0a65691f860da9bfc40023541d9fd218944af616d439a7d863ac5",
    },
    ("n10m3", "eaf", ("--no-tprime",)): {
        "lp": "809161c9326d423260164bda5032a1682a33a085dc3011bf7f01fd48887a305b",
        "dot": "2128d6e3ddf507bc44a5466e5c7de00e869572e7a2c1449cc847c0bd49dbb6f0",
        "mps": "cee2b618af33647e3c3ec7b5860a292ecbf671ffdd9cf7a3789421e8b8ffa61d",
    },
    ("n8m2", "eaf", ("--no-tprime",)): {
        "lp": "672b16d019b78121d79e4d1278bb70fe5f76e07d76d13cfb11e0c97c2e3c45b4",
        "dot": "f4d091e692d346d39161883e59df83e38ad90d69ab6f6fe0ace83be75429a027",
        "mps": "ed66286a179cbd1f7291bf43c422fc113b20f4bb6057d42afc362955947190a4",
    },
    ("n9m2", "eaf", ("--no-tprime",)): {
        "lp": "210cc2d74c02dd98609d51a455bcc5507525331bbdda40f8898165565383988b",
        "dot": "162f87218119c067e2650ac5ea826d211394654d7a1479710482016c29fb2566",
        "mps": "20ce51b82bdafdb89f92fb8afa90924fd57638be0f938993aa00c57fc70c673e",
    },
    ("n10m3", "af", ()): {
        "lp": "53cb163c93df7f8b408f4d63986e88342a750a97d6c6d5ae05125b45223e47fb",
        "dot": "dc017b595dea5f6d0074a2ca581ac5b9888b8d0c55131cc14313c63c912641d7",
        "mps": "f1e53dbcf401bc4093ae7a33a9fb8aae02f8629b5f844897d82060d45f72f9ed",
    },
    ("n8m2", "af", ()): {
        "lp": "e810fc49e0d24113faf6207bd8120bc9bb88b07804f62001195c4283bfba0b90",
        "dot": "a994a2ed760dcba7dfa53519900f1b8d7811993c8c0a95e88c9b17b0b6b35770",
        "mps": "088a6c2f9c44d5b586cdc794ed8165010f97f94f264cbf25a7aee1b31a7354f4",
    },
    ("n9m2", "af", ()): {
        "lp": "0ddc5ec0c3504cf0344c32119dd2966e7fd4a4f143944e38439b4b5c2927caa8",
        "dot": "55238d50dd32afe3eb289655d932f570b35a333c111c2206fdf976962ab45843",
        "mps": "e9a55582c279b4e95bb713bea64b8e5d2ead01b188b8bcd86599e97ceacdec51",
    },
    ("n10m3", "ti", ()): {
        "lp": "c80e2afac379d78c172f22d5d0a37b34fc3ffe5b519dae85ca36d7dc5fc51faa",
    },
    ("n8m2", "ti", ()): {
        "lp": "ea15cd90ce19ba36f08a7ee0c834b5664c93a8ae22ea4966e6a8280e727282fc",
    },
    ("n9m2", "ti", ()): {
        "lp": "a9a252cf51676e3557a7275b2f0690f6da7b72ac280aac8f4ca81e50fc39a3a2",
    },
    ("n10m3", "pti", ()): {
        "lp": "d19a5b9d4d625d9c623d2960e74bc8aab214db97297344470f68b552e0f58bc4",
    },
    ("n8m2", "pti", ()): {
        "lp": "cdb1ee76976c0e1c1f3b0d2a1bc0b6155561177e63fc8bc74f5835db39fc2ede",
    },
    ("n9m2", "pti", ()): {
        "lp": "330266ce62d02e14ff3eb00f31d3cf615b5acc1a9974748eb6f5a19f0d5ca82b",
    },
    ("n10m3", "ciqp", ()): {
        "lp": "55e32be1ee6c2e6524d36753ebb017a5f5c60a198f61d3550e3f0c141bfce7b9",
    },
    ("n8m2", "ciqp", ()): {
        "lp": "e43310bed851cc79fb52acf3067ccabfbdc1169b915760e63848be1ffe091ecf",
    },
    ("n9m2", "ciqp", ()): {
        "lp": "c09318b1240fcce2af60e8827db4c0f55b4cd923489abef380fdd2e01b159dea",
    },
}


@pytest.mark.parametrize("label", sorted(INSTANCES))
@pytest.mark.parametrize("form, flags", CASES, ids=[" ".join((f, *fl)) for f, fl in CASES])
def test_emitted_bytes_match_golden_digests(tmp_path, label, form, flags):
    got = digests(tmp_path, label, form, flags)
    assert got == GOLDEN[(label, form, flags)]


# Larger instances, recorded before the rows were stored as column
# positions: long capacity and flow rows wrap over many LP lines, and ti
# and pti are also locked as MPS.
LARGE_INSTANCES = {  # label: (n, m, p_max, w_max, seed)
    "n30m2": (30, 2, 20, 20, 11),
    "n40m3": (40, 3, 8, 6, 12),  # few distinct (p, w): types merge
    "n50m2": (50, 2, 10, 30, 13),
}

LARGE_CASES = [("eaf", ()), ("af", ()), ("ti", ()), ("pti", ()), ("ciqp", ())]


def large_digests(tmp_path, label: str, form: str) -> dict[str, str]:
    """Digests of the LP (and, except for ciqp, MPS and the flow forms' DOT)."""
    inst_file = tmp_path / f"{label}.txt"
    inst_file.write_text(write_instance(generate_instance(*LARGE_INSTANCES[label])), encoding="utf-8")
    files = {}
    for fmt in ("lp",) if form == "ciqp" else ("lp", "mps"):
        files[fmt] = tmp_path / f"{label}_{form}.{fmt}"
        argv = ["model", "--in", str(inst_file), "--form", form, "--format", fmt, "--out", str(files[fmt])]
        if form in ("af", "eaf") and fmt == "lp":
            files["dot"] = tmp_path / f"{label}_{form}.dot"
            argv += ["--dot", str(files["dot"])]
        assert main(argv) == 0
    return {kind: hashlib.sha256(path.read_bytes()).hexdigest() for kind, path in files.items()}


GOLDEN_LARGE = {
    ('n30m2', 'eaf'): {
        "lp": "587a4abb2ee3e7511f636f76f830b40efaa60688ec392876bf49e6e50542f39d",
        "dot": "426d4d4e0c79e261f5444eaeb9536feab5f9ed176a1aa0f558330746c84f8240",
        "mps": "496d702e1d6431a9d927818256f8c089e8a6bd8ef43c530013324ac9187b23fb",
    },
    ('n30m2', 'af'): {
        "lp": "1f906da09891f87360bb00f899dc3a6322b8d552673c943557f07b5347ac73b4",
        "dot": "6f62bb65c08c8ea711a90efdfcd08c680beed6f89da41ef3514ca9bfca60807c",
        "mps": "f4dd263105c23c85b7506da56c945d905e5a7c27da245edb9bddced61041075e",
    },
    ('n30m2', 'ti'): {
        "lp": "d7bd8163bd47bd37bb4bc576cc486137d368581b8c50d5724ca6445e2130d142",
        "mps": "e4c1fa1594864c0bf5c7aad68527269be35416d578e4c582d28470a7b8eac8cb",
    },
    ('n30m2', 'pti'): {
        "lp": "0c6a3c87789ec41e7605bb8f1a3d6092ffda776249c51071fc11866f1f892737",
        "mps": "940a7e803f5de58850ab7bf1112ce4aad590a8fa6eafb0a60b6dfb578d811a8c",
    },
    ('n30m2', 'ciqp'): {
        "lp": "263394d7e6af02c8de8861774ff3b58b0fa40450204c3ed0728a42f4280be043",
    },
    ('n40m3', 'eaf'): {
        "lp": "c37b449084f5f27bbd23070307e293f66c94e4bafb2e107c166c28d445a0c014",
        "dot": "838249386b24bbda87a249a869c3845135b5a591fc336ea4d5b6ab7581b8e02e",
        "mps": "f4e0b88e48ee63257d8936360e4e41207e9cd61701ba5e73f2f6f032f2ddcb5f",
    },
    ('n40m3', 'af'): {
        "lp": "3c7f1e16914cdf7fd45472254184e37fc57d645ff1acc1ba957b77a7ca0ae51e",
        "dot": "54d43fd4afc8405bcd504c341d0fd9f700bd03c04fca4ecdb50430623809fb56",
        "mps": "c8be3feffcb9527bf2d26692e374e0cc4239e55efcad99c308717bde489c34ef",
    },
    ('n40m3', 'ti'): {
        "lp": "4895fe49522c42fce19e508525dbd6deb82491be84b2ec3c583ade4146fa5f25",
        "mps": "f5223c07d019ab85236451ec3e648331778d4fc849742c4e803a145d674c04ba",
    },
    ('n40m3', 'pti'): {
        "lp": "40abb1fc42f871f2b5d0b1cba2f7299ba40f1b5a591874fd28472fc2c3af8f6f",
        "mps": "1ee422184768ad2279f40de84093d631c239584546b8b1fcd7312c65da091a2c",
    },
    ('n40m3', 'ciqp'): {
        "lp": "3c988f15bfd0e3abac8cc9048c0e1450d71008f7fb43f2361abc9421a2910ae3",
    },
    ('n50m2', 'eaf'): {
        "lp": "d61ec65e8b2ccc3134626ea9eb53d3c36c7ba04be4ed3c552a128313af14e220",
        "dot": "c4712752474260ea7d8108ce542ee7de21c2a3fa7b7b999bc3302471668bbf83",
        "mps": "2feb47638c1df33f2d3ff1f11da0700acdd841ca3299a60fbb765295b6441619",
    },
    ('n50m2', 'af'): {
        "lp": "844b7780eb0e7987a01290fbb6a1b29bec4d311771fcfe8fff7fd7c6dc8b7c64",
        "dot": "ee07ed4464793b7b7a34da849b857f3ecfd1ace501e9314f3c5d66abd20f02fd",
        "mps": "d4a3b1dcfe1be4aa60a094544b3cb21ce96599037b2486da8bd5803909402ed1",
    },
    ('n50m2', 'ti'): {
        "lp": "73945363d278d2c31d4c0386f63b650ccc0dab6505fd5f7aa9961e241383a09c",
        "mps": "1478dce911e6360bf6842d99cf48605b379b7474503477549e12848194c0b71f",
    },
    ('n50m2', 'pti'): {
        "lp": "2fc4e211ebb33531356a916bb664b4e1f28657ee5e854d4f9092a845d8cdd7c2",
        "mps": "6c2573a6d09670ff75b0633153dbbffe7f605351d89d5eaaef51d49ec71e024e",
    },
    ('n50m2', 'ciqp'): {
        "lp": "6c406f5471c0eec2c28c4087e113551033ae9ff2d0aadf97e6df3ca633a229a3",
    },
}


@pytest.mark.parametrize("label", sorted(LARGE_INSTANCES))
@pytest.mark.parametrize("form", [form for form, _ in LARGE_CASES])
def test_large_emitted_bytes_match_golden_digests(tmp_path, label, form):
    assert large_digests(tmp_path, label, form) == GOLDEN_LARGE[(label, form)]
