"""Golden digests of every command's report in both formats.

The sha256 of the stdout and the exit code of each `cli.DISPATCH`
command on the committed models at `--seed 7`, plus
`check-cosheaf --exhaustive`, run in this process.  The structured table
was recorded before the sparse `LinMap` core replaced the dense one, and
the text table before structured reports were written without
`json.dumps`, so a refactor that changes any report, even by one byte,
fails here.  A deliberate change of a report re-records its row.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from catmeas import cli

MODELS = Path(__file__).resolve().parent.parent / "models"

DIGESTS = {
    ("reference", "stone"):
        (0, "5926bb540e165edc14c9f074d21ad228000362ecfd305b04f45c2ed1235a6ef8"),
    ("reference", "partitions"):
        (0, "c99f372d1e76868b560a1a0a50e679b65c1276e4551daadaad051912a879464a"),
    ("reference", "variation"):
        (0, "377234c302b64d362cc09cc3bcd2628d5148d96c582703ba9e3f62ce3860c048"),
    ("reference", "semivariation"):
        (0, "cbc71ea31c6a22e2dcedd785d92d817e5dd6b3aaeb5dc9f77a01b1270249b549"),
    ("reference", "lipschitz"):
        (0, "48d06dffb0f16847cca583271c5aaaabf5812188a62553874b5638f90f75f2bc"),
    ("reference", "integrate"):
        (0, "b8ea3c14a6a207069338048ade2d61d44d32f56527cac1d16560fdbc17656102"),
    ("reference", "bochner"):
        (0, "0f8455d0aa7a749ab7aa4855edbe1c624ec9a2a1a024756eebacbd6c8ed23429"),
    ("reference", "fubini"):
        (0, "3182da77e85a4357244f96f401304350091514a96b22f5b04aa121879a6b1371"),
    ("reference", "check-sheaf"):
        (0, "cb47d3d3fc46c6960a558fdfd8f50eccd37e527bf721807ecf2db665615a9b35"),
    ("reference", "check-cosheaf"):
        (0, "41c873e6925c768ed0f39405b4b378579e324a294eb51d97f29582a4f766158b"),
    ("reference", "spectral"):
        (0, "0b7f17b0db1d9fba5c9485e0db8f8f2a95e1402126847d7920ce86e06a19f836"),
    ("reference", "integrate-morphism"):
        (0, "89a492584481d9f21b8fd9f54d184aa6d372c046e5a76bd7079d0144bbb8e508"),
    ("reference", "cosheafify"):
        (0, "3beccfaa5c3386d2fd5a550a89609efe932db576e68c809c74cc5dc97b8a3a98"),
    ("reference", "bva"):
        (0, "380bb037cd6ef04fcea4219b33222e93ad7369cdc59ed1f83ad7db3449e658f4"),
    ("reference", "kan"):
        (0, "2a8b05760060a5dd809de4fe06492719746477e5b2360262fd48013c73e82b3e"),
    ("reference", "isbell"):
        (0, "7e9524dad0db704600fb6887821cc0fb7903971820b298840cd8a970792f1c8b"),
    ("reference", "verify-all"):
        (0, "a8e76b49ee1368f2d1515fe9883611760b6eb9587f7f73e543ac6de81a7f897c"),
    ("reference", "check-cosheaf --exhaustive"):
        (0, "cdab4e35e576e3e1f102ed46d6177da46f6514afbe1ca97a163d37511c8d5f64"),
    ("broken_cosheaf", "stone"):
        (0, "f602b63649e875984d17ec92772783c945bc63d574178d5e4f59da0e46aeb1fc"),
    ("broken_cosheaf", "partitions"):
        (0, "68011b96222068be94fb7d123bb8532bc8113cc484ecbaba399246f2c735c486"),
    ("broken_cosheaf", "variation"):
        (0, "1f9c6cb9293ae57cf8093cc91326284fb3ff2fa67d34635ab4a91ed8277f9307"),
    ("broken_cosheaf", "semivariation"):
        (0, "3ed018a0d4b0259765052c1f31123b8f49735f2aa9b3ee34325d3b05f22abf09"),
    ("broken_cosheaf", "lipschitz"):
        (0, "d0971728e017b68e1e095716d8a2a5f4f1b84fbfd7d63bf11f38bebef833c26d"),
    ("broken_cosheaf", "integrate"):
        (0, "908ec3cae33d6027f23e59d222fc2e3387b7055545a2acd92ef56cf5d040df52"),
    ("broken_cosheaf", "bochner"):
        (0, "fee6caf8e800af559e30c6201b8f43a914f8c5d645a9697fabb1d989d326bd7f"),
    ("broken_cosheaf", "fubini"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("broken_cosheaf", "check-sheaf"):
        (0, "e36dc896ebd53f1e9eaacd4405eb679b1c238855356aee0d0d0e7a5cc0ae4dd0"),
    ("broken_cosheaf", "check-cosheaf"):
        (1, "989ca2c412cdbaecf0da4c34b1179154c126b2d4fb243978bf71ade20abd64b0"),
    ("broken_cosheaf", "spectral"):
        (1, "064570f7d27faea234326d2781957a20b50e91a871c19f32a7f6017d92094760"),
    ("broken_cosheaf", "integrate-morphism"):
        (0, "3416145881a706addc39490bf5caa6936857b31c31e9ee3feb1c39e51a344547"),
    ("broken_cosheaf", "cosheafify"):
        (0, "0d916de2d35297b7dadd5a22becf4b600e3f4740de82698f2ad47b26c96b586f"),
    ("broken_cosheaf", "bva"):
        (0, "dcc7e4a77cffc608bb95b2689b9c7589c3d90d64872cc5ea1618294ae26d8163"),
    ("broken_cosheaf", "kan"):
        (0, "7dcd0f83085ac6710dbcdffc3b488d8796f041aa37d5ec158ae7d751a22e844c"),
    ("broken_cosheaf", "isbell"):
        (0, "2c735183f8f59b289891de3b1127596d24b30d9d8d97fdc27e89b9888d607894"),
    ("broken_cosheaf", "verify-all"):
        (1, "df66a742a8f73a6d9e07c5a1d6523397d613067fd24b961307e58f4b3cb7a228"),
    ("broken_cosheaf", "check-cosheaf --exhaustive"):
        (1, "19b86edefca1fbdeb12b7d9db7c69a88e7ba51a988ca8723e018be9d746cbead"),
}

TEXT_DIGESTS = {
    ("broken_cosheaf", "bochner"):
        (0, "20cf38b68301412ddccc97e64a00549f6d0b6bae41c6e7060b4608dd32e268a3"),
    ("broken_cosheaf", "bva"):
        (0, "93c17cd31c282bff983b2484a20cbc0c1c7c347de3c39180423c22cadfd87a31"),
    ("broken_cosheaf", "check-cosheaf"):
        (1, "d252cdb5b81531e7090cd32c915c92d997310453642abdfff8e5a08ff58a6a46"),
    ("broken_cosheaf", "check-cosheaf --exhaustive"):
        (1, "202e7dfc5a518d9eed9ba863bddcb0b8f6541cf0196a31ae4004903c337d68c7"),
    ("broken_cosheaf", "check-sheaf"):
        (0, "89a8a7090c50cd27d34ddb326416df007bdd4297fb82f6032f032054176398b0"),
    ("broken_cosheaf", "cosheafify"):
        (0, "0b6c3e3535729f6c1c2b0c36ba00eb7625ef11f4a248adf5897f909dc7584597"),
    ("broken_cosheaf", "fubini"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("broken_cosheaf", "integrate"):
        (0, "bd73afc955c60e859be1f27dd34caf9d8885430fce8af1bc961b1d89cbf08da4"),
    ("broken_cosheaf", "integrate-morphism"):
        (0, "413f9608c209a16147a755be0a82984d89cc67db2a1f2bbef228da8eaba6688e"),
    ("broken_cosheaf", "isbell"):
        (0, "70dded07e0cd7645bb696f88c478a3df7f0633f7e009774eb516aacd04a7c8cd"),
    ("broken_cosheaf", "kan"):
        (0, "8f6e9df96b444b70699126666b8f8c7d9cccab44ed01623d6a5ce2142ddd6992"),
    ("broken_cosheaf", "lipschitz"):
        (0, "c6a0e7acdc56ba0af256674fc8e5db9cf592b24f1f3cdac7056adfad3d23e1cd"),
    ("broken_cosheaf", "partitions"):
        (0, "6850d73b13bbfcd80520595166071dc126c090e0b569d7f7be95070e85f52f8e"),
    ("broken_cosheaf", "semivariation"):
        (0, "59ec0b7dced1625dfcaa137d1e73044d5b463fef1c5771dbd99b0c26167a2faa"),
    ("broken_cosheaf", "spectral"):
        (1, "0a342a54c90fb579ddf560a2e26b03a4514b21f1fa2295240b963e5b47b4b1db"),
    ("broken_cosheaf", "stone"):
        (0, "5e5101638b27df4d191df4a0ac4999adcae98b4bafeefcd7816a37cec932ded1"),
    ("broken_cosheaf", "variation"):
        (0, "033029ec7ce8f8dc0c1e896017c87478ddf4477d1883520373857f8668455bfd"),
    ("broken_cosheaf", "verify-all"):
        (1, "e4d4a0727150de8e121ed9e9e9f68b80209f9a53cd6e693bce4c37cd0872c89e"),
    ("reference", "bochner"):
        (0, "242668d17724f0d4e9bbe9dae4ea864e4e67cf4cd04770853533a874043c4593"),
    ("reference", "bva"):
        (0, "0fc8d35d5b4111e57f229b49217dea67f3b648a224cc85486d0cb590c60d1635"),
    ("reference", "check-cosheaf"):
        (0, "2f6aec19acd83b3154949fac1becf7f6b64c4f54c42767c613de8b3320996a39"),
    ("reference", "check-cosheaf --exhaustive"):
        (0, "4cfe08f62c4e7b0e820f218a5e4ad341c1784b6c7d018edea5e16455e9bd43bc"),
    ("reference", "check-sheaf"):
        (0, "3cf20593d38f2c6ceaac11c0d2a77d6654a2c5c2d040be17bf5ee73f37bbe9d5"),
    ("reference", "cosheafify"):
        (0, "640d55880e228ae019bca5be42d409d13f2d82e11c195aebbeb20a758b30480e"),
    ("reference", "fubini"):
        (0, "a0378c55e17f3f3b9d946e713fa60f927a8f7564c70c647d84775dbbd656e46f"),
    ("reference", "integrate"):
        (0, "5d6abdb64f9d95c572724a90d173d1085f3cfa6334d1703de7d87c0a02b0fbab"),
    ("reference", "integrate-morphism"):
        (0, "db8b63d007cf5c631a046d4e7e45da42510618f2b05548b20e786733d9f4a5b5"),
    ("reference", "isbell"):
        (0, "484442dc97ec498cb802a066256015ae7f0ec153becaff6963c12ef1f9d1595e"),
    ("reference", "kan"):
        (0, "a5957be5236544982b169cdfe7edc564361e09cab91b6f50ff3cc9ae94818c3b"),
    ("reference", "lipschitz"):
        (0, "76eafefe80c41c2412e5727707bd9ecb166665703b884444f007d07179d9d121"),
    ("reference", "partitions"):
        (0, "69ff34691d4cb60a3e2149b35d42f444f681459d03a0dd3713f58e06cceb10a0"),
    ("reference", "semivariation"):
        (0, "42c202d1afe90921ecfb650d84e205e45c8556ca1a1656da269953754134cb7a"),
    ("reference", "spectral"):
        (0, "5639cc6ef04df6ff41177ed394017036502ecc99bd509c5d56cd68d6b71dad66"),
    ("reference", "stone"):
        (0, "b843c071e27117e1514b98c572ac4a0bf58376dc1c89c6c86409f12a71af6a0a"),
    ("reference", "variation"):
        (0, "9bf3e2d46d7c56b30884d160d2d05db2085ddbba1c63f287c0c6ec762a4caecd"),
    ("reference", "verify-all"):
        (0, "f0543ac5c68ca14a100456b841e09a24b26802af0d6f3107e7d78176f810f56e"),
}


def test_the_table_covers_every_command():
    runs = {run for _, run in DIGESTS}
    assert runs == set(cli.DISPATCH) | {"check-cosheaf --exhaustive"}
    assert {model for model, _ in DIGESTS} == {"reference", "broken_cosheaf"}
    assert TEXT_DIGESTS.keys() == DIGESTS.keys()


def digest(fmt, model, run):
    """(exit code, sha256 of stdout) of one run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*run.split(), "--model", str(MODELS / f"{model}.json"),
                         "--seed", "7", "--format", fmt])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("model, run", sorted(DIGESTS))
def test_report_digest(model, run):
    assert digest("structured", model, run) == DIGESTS[(model, run)]


@pytest.mark.parametrize("model, run", sorted(TEXT_DIGESTS))
def test_text_report_digest(model, run):
    assert digest("text", model, run) == TEXT_DIGESTS[(model, run)]
