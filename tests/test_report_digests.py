"""Golden digests of every command's structured report.

The sha256 of the structured stdout and the exit code of each
`cli.DISPATCH` command on the committed models at `--seed 7`, plus
`check-cosheaf --exhaustive`, run in this process.  The table was
recorded before the sparse `LinMap` core replaced the dense one, so a
refactor that changes any report, even by one byte, fails here.  A
deliberate change of a report re-records its row.
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


def test_the_table_covers_every_command():
    runs = {run for _, run in DIGESTS}
    assert runs == set(cli.DISPATCH) | {"check-cosheaf --exhaustive"}
    assert {model for model, _ in DIGESTS} == {"reference", "broken_cosheaf"}


@pytest.mark.parametrize("model, run", sorted(DIGESTS))
def test_report_digest(model, run):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*run.split(), "--model", str(MODELS / f"{model}.json"),
                         "--seed", "7", "--format", "structured"])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == DIGESTS[(model, run)]
