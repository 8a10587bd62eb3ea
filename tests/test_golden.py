"""Golden digests of every suite report and command line artifact.

Each case runs one ``cambrian`` command in-process and pins the SHA-256
of its exact stdout bytes together with its exit code, so a refactor that
changes a report's content, check order or key order fails here.  The
digests were captured before the per-family code paths were merged.
"""

import hashlib
import json

import pytest

from cambrian import suites
from cambrian.cli import main

H3_ORIENTATIONS = ("1>2,2>3", "1>2,3>2", "2>1,2>3", "2>1,3>2")

# Every (suite, family) pair that ``verify`` accepts, at default ranks.
VERIFY_FAMILIES = {
    "catalan": (None, "A", "B", "I2", "H3"),
    "congruence-eq": (None, "A", "B"),
    "sublattice": (None, "A", "B"),
    "patterns": (None, "A"),
    "shard": (None, "A", "B"),
    "fan": (None, "A", "B", "H3"),
    "cluster": (None,),
    "descent": (None, "A", "B"),
    "mobius": (None, "A", "B"),
    "iso": (None, "A", "B", "I2", "H3"),
    "b-tamari": (None, "B"),
    "fibers": (None, "A"),
}

CASES = {
    **{
        f"verify {suite} {family or 'default'}": (
            ["verify", "--suite", suite] + (["--family", family] if family else [])
        )
        for suite, families in VERIFY_FAMILIES.items()
        for family in families
    },
    # The same pairs under --max-rank 3, which lowers every default largest
    # index but catalan's, which it replaces; at 5 it raises catalan's B_4.
    **{
        f"verify {suite} {family or 'default'} max-rank 3": (
            ["verify", "--suite", suite]
            + (["--family", family] if family else [])
            + ["--max-rank", "3"]
        )
        for suite, families in VERIFY_FAMILIES.items()
        for family in families
    },
    "verify catalan B max-rank 5": [
        "verify", "--suite", "catalan", "--family", "B", "--max-rank", "5",
    ],
    "fan A signature": ["fan", "--family", "A", "--rank", "3", "--signature", "uudu"],
    "fan A orientation": [
        "fan", "--family", "A", "--rank", "3", "--orientation", "1>2,3>2",
    ],
    "fan A stasheff": [
        "fan", "--family", "A", "--rank", "3", "--signature", "uuuu",
        "--stasheff-check",
    ],
    "fan B n=2": ["fan", "--family", "B", "--rank", "2", "--signature", "ud"],
    "fan B n=3": ["fan", "--family", "B", "--rank", "3", "--signature", "udu"],
    # Larger fans: S_5, S_6 and B_4 cones.
    "fan A n=5": ["fan", "--family", "A", "--rank", "4", "--signature", "uduud"],
    "fan A n=6": ["fan", "--family", "A", "--rank", "5", "--signature", "uduudu"],
    "fan B n=4": ["fan", "--family", "B", "--rank", "4", "--signature", "udud"],
    **{
        f"fan H3 {o}": ["fan", "--family", "H3", "--orientation", o]
        for o in H3_ORIENTATIONS
    },
    **{
        f"build {label} {fmt}": ["build", *argv, "--format", fmt]
        for label, argv in {
            "A weak": ["--family", "A", "--rank", "3"],
            "A cambrian": ["--family", "A", "--rank", "3", "--orientation", "1>2,3>2"],
            "B weak": ["--family", "B", "--rank", "2"],
            "B cambrian": ["--family", "B", "--rank", "3", "--orientation", "0>1,2>1"],
            "I2 weak": ["--family", "I2", "--m", "5"],
            "I2 cambrian": ["--family", "I2", "--m", "5", "--orientation", "1>2"],
            "H3 weak": ["--family", "H3"],
            "H3 cambrian": ["--family", "H3", "--orientation", "2>1,2>3"],
        }.items()
        for fmt in ("json", "dot")
    },
    # I2(7) and I2(12) run over fields of degree 3 and 4.
    **{
        f"build I2 m={m} weak json": [
            "build", "--family", "I2", "--m", str(m), "--format", "json",
        ]
        for m in (7, 12)
    },
    # I2(3) has every bond label at most 3, so its field is Q.
    "build I2 m=3 weak json": ["build", "--family", "I2", "--m", "3", "--format", "json"],
    "build I2 m=3 weak dot": ["build", "--family", "I2", "--m", "3", "--format", "dot"],
    "build I2 m=3 cambrian json": [
        "build", "--family", "I2", "--m", "3", "--orientation", "1>2", "--format", "json",
    ],
}

GOLDEN = {
    "build A cambrian dot": (0, "b73a720a89768671582ea037cb92d765689ceed638c9911a2e5fb1f8ce061492"),
    "build A cambrian json": (0, "d10f8fd397fe4c54bf315ff2fec20fc03330f127d4a8da953f54e925cea10106"),
    "build A weak dot": (0, "16c319e6888ede1e6fede1e6ecbc7fc6dce174ad1cf63c90e1255625663eaef6"),
    "build A weak json": (0, "63db1e8aa832a3247b21a6de5ac797a9cbe47575cfa7548df7cf088659773c76"),
    "build B cambrian dot": (0, "c9b6537102f6a8b46128ed80c403fdca6a825a959fc8811cf19a3c82d788f44a"),
    "build B cambrian json": (0, "a69168d6c9da7e229a354f5cabced5355912827e3eb89b45079e4d2211711b03"),
    "build B weak dot": (0, "a59eafcd9405df05ba2eaea163936fd9759addd2c66b52059691eb12c498afe2"),
    "build B weak json": (0, "21ecd277dea5572fe364cabe48de1a3953b9aa5a704e0baf1ab99cdb8268351e"),
    "build H3 cambrian dot": (0, "a88e2421d8804d9e5a851f06e739a17a39b83873df40f503eca14cd6cb96f4c3"),
    "build H3 cambrian json": (0, "0747bdd108570f733544517720ad90dce7abe6eba805fd5b0940fdc47a2cab28"),
    "build H3 weak dot": (0, "86591a5331419b7890afd013b06af52d4173ae4a5ca5612942dd27614000ec2a"),
    "build H3 weak json": (0, "e31e42511734b4ced4fdf9ab50807b2ef5857f4afc8b0b1fe0c50218e86f7acd"),
    "build I2 cambrian dot": (0, "e1946a28bbc8d277f839ef0cb474b0573b75653c3338301cdb0886c96143f811"),
    "build I2 cambrian json": (0, "6480ecbc552205961363e2de0f6e1709dcca50374a68b7c4ca61f6e618a280bd"),
    "build I2 m=12 weak json": (0, "41431f80d48c76de61ff39a0fdd2f8a15ba23dfa4e886b9c8aef7145a3310a7e"),
    "build I2 m=3 cambrian json": (0, "830e3f141b8a606d82d9b45421c604a6a8a2d54a4e0c9ff17d05ebef35d1f436"),
    "build I2 m=3 weak dot": (0, "55c8cc30243865737ba29d9434ec02cc2223b7675cbf0c5a908b207031e093f6"),
    "build I2 m=3 weak json": (0, "c5efaeb588528cdfe7142edf54d2425019e90cb680b29c601166dfee8d4b00f3"),
    "build I2 m=7 weak json": (0, "91b205fe22a439aaadbc1e064ccb726215b55c132e529bf06996a8f8bf76bf8e"),
    "build I2 weak dot": (0, "713b403350e587e291948f01dbccb96c1a9140a097a3f1ad34ace8bdf62adc9f"),
    "build I2 weak json": (0, "887e5423158b746ee93ee631c324f1654db509effd2fca5d2acd9569a0118bcc"),
    "fan A n=5": (0, "0f2a51cdd31d46f64e3a450b78a4dbee703d59130d3a2d4f7e7de7109583326d"),
    "fan A n=6": (0, "e0346b04c4107bac9c93cda96e41c737f75e60cd4fd27873d8ba28aa4d638e22"),
    "fan A orientation": (0, "05faaa382747f351f24e123e84060731846448910020b491a30fb1c0f431089d"),
    "fan A signature": (0, "e91e30bf2e88615c643e6d894922a2d98e5c534be6062aee4e96d2d0335e9ad8"),
    "fan A stasheff": (0, "ce25d544fe628937c77c7d554fbe3ce37bb7f8ae708f05b652c5f4ee410cf941"),
    "fan B n=2": (0, "25cde8ab4a14186b16d63bd666675c2d783ec8d5958a52f84928d4226f8a7791"),
    "fan B n=3": (0, "c5551f8d1b08352fd7ee74dccb242691b9b2a9f9750e7b1b43f70fd624d924dc"),
    "fan B n=4": (0, "1c1747ffbdc1b9fb11191433045ef544d1a9749489927a42b478b4f211ca23a0"),
    "fan H3 1>2,2>3": (0, "f87d343a44c9f902548bf4e806a2c24c69fa8315db58469fa9fc0a3da4e7f205"),
    "fan H3 1>2,3>2": (0, "40373bc7c6574b4f96fcf8f4a094ab7f2d010fb3533ae8eb85f5a50b4bfe0d29"),
    "fan H3 2>1,2>3": (0, "f0507ae22db989f931b13bd1a3e4911d28ea1a088095fceacff349bad4a3e80b"),
    "fan H3 2>1,3>2": (0, "7f4c8b1c922a0d10fe2b4b83179d3706494c1e2af627a518b5febf1a745352a1"),
    "suite_fibers": "2760b609d66a7dd56da9b0605dec40c0065901b2f0f43e4f7b5491cbe0f208f2",
    "verify b-tamari B": (0, "e0560d930fd5f9e037baa23495694ed9047ee2148dd89abeb962fa32d6389949"),
    "verify b-tamari default": (0, "e0560d930fd5f9e037baa23495694ed9047ee2148dd89abeb962fa32d6389949"),
    "verify catalan A": (0, "5331f3557d5bb26d086b752b72fae01123ac82791feac68059d5ae28467f0232"),
    "verify catalan B": (0, "6572ee7d6ee61e27e3ead3d2f50c4697cca924745be6ac935c45e1f195275529"),
    "verify catalan H3": (0, "18df64fc42dbf7349cc438bcea3f42e01ce19b07e1efc2a369ef0abaafeeee5f"),
    "verify catalan I2": (0, "c7b924dcd670c9ca3213360121eb86a222786d364827514927006ac782a39abe"),
    "verify catalan default": (0, "5331f3557d5bb26d086b752b72fae01123ac82791feac68059d5ae28467f0232"),
    "verify cluster default": (0, "5317a56e678ec15f57fc80e4ebcc6cbe43b8c979422f0f98dafff76c4f4b5bb9"),
    "verify congruence-eq A": (0, "8e4e460beee39ae342612a64e66147b6069b76d6fa0f2f4ca0853bf20d3ae0bb"),
    "verify congruence-eq B": (0, "9a230e78c095f6793c6a9a97d8d2dcb3de1079113f2aa9e1f9b5cbc9b86a4ec2"),
    "verify congruence-eq default": (0, "815c55381eedadf73905e0da88a62f2e52aba7e31e3a27f43ce993509ddbffbf"),
    "verify descent A": (0, "8fa0328601e23c41d1c66ec9c9c36133291758e5730aec10687f1a9e770797a5"),
    "verify descent B": (0, "3244ed7680f3c9c72bbe442430574bac23e845adaad1d9ec6abb44be37db0074"),
    "verify descent default": (0, "8ba3af0b96e4584dcb75b97cfdf5a345455ae5c06827953203c8a6ba13b6d0bb"),
    "verify fan A": (0, "7f32646e07c68b692a5e23050abe77599c65a5ad1804a665678e3f55e139d398"),
    "verify fan B": (0, "024b02c280fc8e7d0f11cffcdd82fcf90d77a607358678325d01f7269467df99"),
    "verify fan H3": (0, "769e9bfaa981a552e2e0b0baafb2b6dd76750923efb0d93a7a870494de274ea6"),
    "verify fan default": (0, "d03bba0f9eb506c7a8af5d63adc9447efb36082ccc5ee623c192f4e5aa800e62"),
    "verify fibers A": (0, "2760b609d66a7dd56da9b0605dec40c0065901b2f0f43e4f7b5491cbe0f208f2"),
    "verify fibers default": (0, "2760b609d66a7dd56da9b0605dec40c0065901b2f0f43e4f7b5491cbe0f208f2"),
    "verify iso A": (0, "48c1705415f45d28ef281d8b43a184ba9409ef34d20462dbb7fa38b446ace845"),
    "verify iso B": (0, "507656fb6475b7f75261fcbd214eca0d2a00082ecf95173164567493aa8a7deb"),
    "verify iso H3": (0, "8fbf0ed43a943be0db64daa5acf38496c1d9e477ae15957119d5ab1a8462ce64"),
    "verify iso I2": (0, "422cf570305aada881ccd318cd7d505f010cc3f97960bff582d97498fc1a6393"),
    "verify iso default": (0, "281166d62324175319158f41e816c73cfc5bf94c2dda2fa6cd554dcf7dbeeca7"),
    "verify mobius A": (0, "76b88a140ab5e4b923d6548517735ea9ae184f1e84135a6b1dab2614be261f9d"),
    "verify mobius B": (0, "0274bb357aa2a2a2964e076905eaa792cf1ba4333e686cade16f23c060014dfe"),
    "verify mobius default": (0, "bb3f0512b0cf69064dd1219297de3150911d52f03ef9a05c005c80b488fb3535"),
    "verify patterns A": (0, "d9ab4d3e2d1978f6d83b9bfededb426f92e1ca51d76502300f03e4030eb7cfa5"),
    "verify patterns default": (0, "d9ab4d3e2d1978f6d83b9bfededb426f92e1ca51d76502300f03e4030eb7cfa5"),
    "verify shard A": (0, "91c338c9c982b99f516a91a02565b1e4578783969b1227e57de8cf34ad844f43"),
    "verify shard B": (0, "67f1786c6aa0675f90900b40435a7fa01e4704a96359916ce122b2fc28fe1ec2"),
    "verify shard default": (0, "568bb65a6a9ae511aeffcb8a46889335e0e60cf6091832746759267ebb95bf8a"),
    "verify sublattice A": (0, "ae6da98d6ce9b6987884b890815ff8cf26927d3eede73134dd5d482986a024f3"),
    "verify sublattice B": (0, "8a5cdf7109b9ad762973ec289bf1f0889e213b98219fc67ef0490e035f6f4410"),
    "verify sublattice default": (0, "4399e62dbcd2136eddcbc231308b1beeda0811c8f3d42e1a62e8eb2544d55a95"),
    "verify b-tamari B max-rank 3": (0, "1b5d36edf877df9ea3e1fa6b6fe7717e9280e66f8b1930f84cabf92252ede3d6"),
    "verify b-tamari default max-rank 3": (0, "1b5d36edf877df9ea3e1fa6b6fe7717e9280e66f8b1930f84cabf92252ede3d6"),
    "verify catalan A max-rank 3": (0, "6e97b52a5015bca0545a7e3bb475c18ea1721cd0cb4b704e93a123b94eed0097"),
    "verify catalan B max-rank 3": (0, "f939e5798d0aed5c386a636ee9c07a14a9c1d7b40714909cf636dccd19d7d0e4"),
    "verify catalan B max-rank 5": (0, "948b9d8cb886acc2b1569d5a1b5e13221fa5beb975493026ff5ebdd8ed369c5e"),
    "verify catalan H3 max-rank 3": (0, "18df64fc42dbf7349cc438bcea3f42e01ce19b07e1efc2a369ef0abaafeeee5f"),
    "verify catalan I2 max-rank 3": (0, "9ee90e612e4481d0c515f9d45dd7e91034c6bd9f09a3f2de11e58eaed777a8b8"),
    "verify catalan default max-rank 3": (0, "6e97b52a5015bca0545a7e3bb475c18ea1721cd0cb4b704e93a123b94eed0097"),
    "verify cluster default max-rank 3": (0, "ca1c2916241c8b34c37d9e97b4c2b41de2e074728bfdd1dcc8178c0e613cf6d3"),
    "verify congruence-eq A max-rank 3": (0, "e9d735e01d855898f76706fc9fce1fcbf4109a2de029185a5110d54c3acfc484"),
    "verify congruence-eq B max-rank 3": (0, "9a230e78c095f6793c6a9a97d8d2dcb3de1079113f2aa9e1f9b5cbc9b86a4ec2"),
    "verify congruence-eq default max-rank 3": (0, "9c077606460f340b10d6e7d9d31bbf29f207a84429aa1727b7d5b623018c4f50"),
    "verify descent A max-rank 3": (0, "21c89f26a9a5055bc214cd0abc72130edfc60695f6621fd393597683eeb8bae3"),
    "verify descent B max-rank 3": (0, "3244ed7680f3c9c72bbe442430574bac23e845adaad1d9ec6abb44be37db0074"),
    "verify descent default max-rank 3": (0, "5d1f0351ce53f713a1895a446ad59e33a4194789674406313dd054e40b83025d"),
    "verify fan A max-rank 3": (0, "2d92f64827eb4f900b15fee1364664514e283d59a33cc8dc1c3b8e8584703d57"),
    "verify fan B max-rank 3": (0, "024b02c280fc8e7d0f11cffcdd82fcf90d77a607358678325d01f7269467df99"),
    "verify fan H3 max-rank 3": (0, "769e9bfaa981a552e2e0b0baafb2b6dd76750923efb0d93a7a870494de274ea6"),
    "verify fan default max-rank 3": (0, "f694320767223ff8992ecdecffa6b8c12d908950adfc96a66648d3d2f45122f0"),
    "verify fibers A max-rank 3": (0, "ce86853904755399c17be6817c40c59693e185d35300cf1880069b876d3c4bdc"),
    "verify fibers default max-rank 3": (0, "ce86853904755399c17be6817c40c59693e185d35300cf1880069b876d3c4bdc"),
    "verify iso A max-rank 3": (0, "830dae7415f905b22550f4199c6bf4f3106e9d8b7fecf75ad743e65fbb5f45de"),
    "verify iso B max-rank 3": (0, "507656fb6475b7f75261fcbd214eca0d2a00082ecf95173164567493aa8a7deb"),
    "verify iso H3 max-rank 3": (0, "8fbf0ed43a943be0db64daa5acf38496c1d9e477ae15957119d5ab1a8462ce64"),
    "verify iso I2 max-rank 3": (0, "54961f15f0403f5b29939f68a7e24f8b368ef983e651edd5715984a53a878e57"),
    "verify iso default max-rank 3": (0, "31f05e766246c7708f6b89ec5504e1431faa7a2119a13fb18effafe94e2fd9bd"),
    "verify mobius A max-rank 3": (0, "dbb9ba4fa218efef08500cb628ca3fd53209d921ef5596ddc5d8cf97c5a6878e"),
    "verify mobius B max-rank 3": (0, "0274bb357aa2a2a2964e076905eaa792cf1ba4333e686cade16f23c060014dfe"),
    "verify mobius default max-rank 3": (0, "7d865c3aa39060d0e0b4ae689827a575437e6007d1f73fd6a54011fd23e02f4c"),
    "verify patterns A max-rank 3": (0, "9dfeb487238789b110cefe385a80e694d6ae9da00d608f7e230c3604abf5dda5"),
    "verify patterns default max-rank 3": (0, "9dfeb487238789b110cefe385a80e694d6ae9da00d608f7e230c3604abf5dda5"),
    "verify shard A max-rank 3": (0, "bf10f96d14372cbf1dbc40023e4f9114b1266a03f194c3b492ee532127cbdf46"),
    "verify shard B max-rank 3": (0, "67f1786c6aa0675f90900b40435a7fa01e4704a96359916ce122b2fc28fe1ec2"),
    "verify shard default max-rank 3": (0, "104215f0138e96580ea9078d56e314329b211e440bc6099c166e87b61f95a366"),
    "verify sublattice A max-rank 3": (0, "d9acec9b8cef556bd46e8c7663f2b23b191ff8124f44a1afb3cb11a49882fa28"),
    "verify sublattice B max-rank 3": (0, "8a5cdf7109b9ad762973ec289bf1f0889e213b98219fc67ef0490e035f6f4410"),
    "verify sublattice default max-rank 3": (0, "22010b447e75ae512b6e08dcf7caf18d134b238203ac32a25ee97d9554922bc5"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert (code, _digest(out)) == GOLDEN[name], name


def test_fibers_report_matches_golden():
    text = json.dumps(suites.suite_fibers(), indent=2) + "\n"
    assert _digest(text) == GOLDEN["suite_fibers"]
