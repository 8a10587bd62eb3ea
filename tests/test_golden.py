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
    # I2(7) and I2(12), whose roots were once closed over fields of degree 3 and 4.
    **{
        f"build I2 m={m} weak json": [
            "build", "--family", "I2", "--m", str(m), "--format", "json",
        ]
        for m in (7, 12)
    },
    # I2(3), whose roots were once closed over Q.
    "build I2 m=3 weak json": ["build", "--family", "I2", "--m", "3", "--format", "json"],
    "build I2 m=3 weak dot": ["build", "--family", "I2", "--m", "3", "--format", "dot"],
    "build I2 m=3 cambrian json": [
        "build", "--family", "I2", "--m", "3", "--orientation", "1>2", "--format", "json",
    ],
    "verify catalan I2 max-rank 30": [
        "verify", "--suite", "catalan", "--family", "I2", "--max-rank", "30",
    ],
}

# Every I2(m) build for m = 3..30, the weak order and both orientations in
# both formats, that the cases above do not already pin.  These digests
# were captured from the root closure over Z[2cos(pi/m)], before I2's roots
# were numbered by angle.
_PINNED = {tuple(argv) for argv in CASES.values()}
CASES.update(
    (f"build I2 m={m} {name} {fmt}", argv)
    for m in range(3, 31)
    for name, orientation in (("weak", []), ("1>2", ["--orientation", "1>2"]),
                              ("2>1", ["--orientation", "2>1"]))
    for fmt in ("json", "dot")
    for argv in [["build", "--family", "I2", "--m", str(m), *orientation, "--format", fmt]]
    if tuple(argv) not in _PINNED
)

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
    "build I2 m=10 1>2 dot": (0, "a321d5c24a90657309b78aa179bf02bc92a2179d981863ed31282d882ff237f4"),
    "build I2 m=10 1>2 json": (0, "7963895ac47ae5de7befc28e5454b86f3eedcd895159a0a474a4723bd28216ab"),
    "build I2 m=10 2>1 dot": (0, "d5d16762facd74252ffef80f95a6d40b49bf980947ea5117dea9d4de9652ff20"),
    "build I2 m=10 2>1 json": (0, "e5be2f555a475769f40883fec6f232df78c1bb8e1ba495013de2320c28894340"),
    "build I2 m=10 weak dot": (0, "0038c54bfb0d857e2bc4ce5473f7b750a6985b8faea83b4d3f6b389af3045342"),
    "build I2 m=10 weak json": (0, "50005584072406b488e6077090771534c20bd909f3c443f4e7ad63f69388a444"),
    "build I2 m=11 1>2 dot": (0, "1f8ead9d9b8476ce3ca6fec4cfe067238e56ed86df1dc61eda399b91c69a86cf"),
    "build I2 m=11 1>2 json": (0, "56767f639804d7af88b9dc9e6341f42ced292ee115625b0235b0c9d8692add27"),
    "build I2 m=11 2>1 dot": (0, "701665826c41b148f465dd4e733b9e27683f7aedf003d5d9d935bb5a289232fd"),
    "build I2 m=11 2>1 json": (0, "d49411dcfcbae9d9e732d081102f9ab09ce6a68a1c4b59eff72a1524edbad402"),
    "build I2 m=11 weak dot": (0, "6e23ca0ed934b8b9f92ae7b83e66446725eab768ddfd2ef7640e897312a686ca"),
    "build I2 m=11 weak json": (0, "a587bedeae96ba5e937fca7d28ad9909d2c96a44c9f083fcee6866a1b579e1b2"),
    "build I2 m=12 1>2 dot": (0, "2934a5c97c0a8e33d06b277ee7609e73501d6cf4d374ad2959a3068fd318314f"),
    "build I2 m=12 1>2 json": (0, "f9081a80ed7ee5cf3bcf30822b0e9fa17bf9a1060452bd2d53b0cde3538a29cc"),
    "build I2 m=12 2>1 dot": (0, "d5cc466c764be1987217aaf6955cb240ca899330595648ad0884cc8442e39f2a"),
    "build I2 m=12 2>1 json": (0, "462dc1404a4f71875b601cf68ab32427b54e5ae1abf2637b12a038ecaa61ef26"),
    "build I2 m=12 weak dot": (0, "1d8261368a9998ecfa40af80b40424c045c45c9ee9b15bd89519cbe92e2395bb"),
    "build I2 m=12 weak json": (0, "41431f80d48c76de61ff39a0fdd2f8a15ba23dfa4e886b9c8aef7145a3310a7e"),
    "build I2 m=13 1>2 dot": (0, "87b22320166de1d1751d1a746ff352ae6bbccf4528425017678fb666fa23afc1"),
    "build I2 m=13 1>2 json": (0, "ae46529f588373748a14876f7ecbc21ee6eba38b676d090fde353c141cda13fa"),
    "build I2 m=13 2>1 dot": (0, "b0ed10f0723b9401b7a53a6397d3c5220fd5827f5c6b12678cd1cb09e4469e2c"),
    "build I2 m=13 2>1 json": (0, "de574d739a6054c885d3a5be3fccf1b38a14acef68dfbeb91d854fcf1686407a"),
    "build I2 m=13 weak dot": (0, "007e9db3ab857de9ffe51f3c8b4a503bd2258f36d9a13a445fa1423b9378f7b3"),
    "build I2 m=13 weak json": (0, "ebdcc79275f38e82381021af19b8f3c8c1cb23c96f95f0472780a6fbf830745c"),
    "build I2 m=14 1>2 dot": (0, "b4f901e05f0e09678f228447cd87f0c022152ea7ce1e783f24e6606768d509a3"),
    "build I2 m=14 1>2 json": (0, "2ecfc70e788b31009bd63bbddc10babdd2ffc5864b6ddcda4886efcbb3132c9f"),
    "build I2 m=14 2>1 dot": (0, "808608659a0f9927c918d77fb2da145b3340eb84a9cba2ea5ce61a4c81c3110c"),
    "build I2 m=14 2>1 json": (0, "7b7623ac418de3cfd319cda4e8a6d7d04e4fb78ec7caa1e9ec0880a9c3145bfa"),
    "build I2 m=14 weak dot": (0, "1c3c1c7907fc06632bc12929310a422822f6849c8ddbd6c64e93058cf0435f10"),
    "build I2 m=14 weak json": (0, "a24befba959e6b60daa6c4d12fb6269d13298d0d299a0a884233d2f54f0450d8"),
    "build I2 m=15 1>2 dot": (0, "68b6eba5f36a0edc3061772d6a5fe99a4653891cff370866c1f3cf2bc597a8db"),
    "build I2 m=15 1>2 json": (0, "503d24ec3432bed405f7bd1f0a11aae7fbec55f35d6dc442e7d736a875f061dd"),
    "build I2 m=15 2>1 dot": (0, "cbc772b4e5b393f974945e4a9f075cd8d4d25abac9e40f4bfbae4adeedc02966"),
    "build I2 m=15 2>1 json": (0, "27d5251129719699561cd4dc4eeee0674c67a54566eb4aef44cfde907afb1ee8"),
    "build I2 m=15 weak dot": (0, "be0ccd816960db518ee52b0c9a65821aec0b2c7dd098bd995ff7d3b07bb9aaae"),
    "build I2 m=15 weak json": (0, "4a8436992454fcb2d93829c6a1b53ab687f9ad08d972b525553f2cc5bb0bc50b"),
    "build I2 m=16 1>2 dot": (0, "5d17ded56f34b24e47a4b18b36ac626afa840e096007f6c26876c78da96b8060"),
    "build I2 m=16 1>2 json": (0, "289f43dab593afdf130fd93d38782a68bbd6c4774a644fcad99cac98a49ea65c"),
    "build I2 m=16 2>1 dot": (0, "e250710aa68189d63144f8f9702078b896930d2c55644fc66137d1d1105554ec"),
    "build I2 m=16 2>1 json": (0, "14ca4fbcc44a6ea2399bc7c8e12cb8896545349bcdbfac77752bebcd645eda8e"),
    "build I2 m=16 weak dot": (0, "f149513fb19a1e650ca75769b1978425e6b1325c3f212763291592cd3ba95e34"),
    "build I2 m=16 weak json": (0, "e1d96d0f2be8bc37dfc20d5fcfec6ce94f77784ac1dab79b344735b14041cac6"),
    "build I2 m=17 1>2 dot": (0, "f7b04b9ac17e1a828227efe5dc6e96dcdb6e1148c9b549cdd72eee72756ead0d"),
    "build I2 m=17 1>2 json": (0, "565712a31bbefab3f58cd31e6228f0dab133001498fbc8a6dfd0a264957cba92"),
    "build I2 m=17 2>1 dot": (0, "eb9350113f0f8f19224be57d85525e4d763eea1d01877742aeba4978044b5212"),
    "build I2 m=17 2>1 json": (0, "a213b3e0981bdb87f4ba114c20d8a7ef450b8d0248ec6f894307442dd6a0bb89"),
    "build I2 m=17 weak dot": (0, "0134202c17aba7a812c0e4bff27feeef7ffa8a4369a966bab674c1b3853c2093"),
    "build I2 m=17 weak json": (0, "2197ca5721d4dc17bba51df4833d03fde2b08898f6e72a6bca53e91f7f732eed"),
    "build I2 m=18 1>2 dot": (0, "5090f3fb5170291ec73c2b5004f464f708c984df6218d4da98837c36985803ec"),
    "build I2 m=18 1>2 json": (0, "ef57cd365525965e819b68088ebc5852be7c82beebae97f237c01bb1e2ecdec4"),
    "build I2 m=18 2>1 dot": (0, "47b649a69de32135468e4adf995f71b710cc5ac0a58fc4ac61480a3068038a76"),
    "build I2 m=18 2>1 json": (0, "1acfe8bba0397b599d06b6cbfcae738325ad19ae10062e12925b200a34515541"),
    "build I2 m=18 weak dot": (0, "dccf49677776497d0d798630a995dba6fb8d65bb3e61dfeea13326b6d2e8f1d6"),
    "build I2 m=18 weak json": (0, "a94a28d9b6cc645202fc638cf202404be1f59f2c442cc41cdf379e06805e5b9b"),
    "build I2 m=19 1>2 dot": (0, "3e348807291facb829330e50ff1b447583d2281d3ecb74705db6e95ffe0a5bd4"),
    "build I2 m=19 1>2 json": (0, "2def2766ac8cef7a10c6761f0e9182526f270d230639ab05dac742f2cc5d4c1e"),
    "build I2 m=19 2>1 dot": (0, "4bae3467bc207f1eae4574c1d449d49ea87a5f1f5039047d16edd4b872977c41"),
    "build I2 m=19 2>1 json": (0, "99f6862cc7f268423f0ff55dc2b396d749e44d48eac012e83cc197b51c9395a5"),
    "build I2 m=19 weak dot": (0, "cdb5b4e1f8d9e454e52c104efcf50bfa51efacce00d7eb0684517bbb63f4616d"),
    "build I2 m=19 weak json": (0, "2354790c8a09d5ba86c8083e2797b994b36243a2512c3336e03a666e81e70e7f"),
    "build I2 m=20 1>2 dot": (0, "9f917874b069c22def3d2d4091698df77c82775eddbedc689ab9b37cad1bc5fe"),
    "build I2 m=20 1>2 json": (0, "24fefa967a0c510b1a7ef5f11ce141806a2aaa914b8e5611920916a41aae4f76"),
    "build I2 m=20 2>1 dot": (0, "14ad18ec840c09989ceedd0b4d02fac0ff29d29850657f98e3f4a8c2ab1cd76e"),
    "build I2 m=20 2>1 json": (0, "24765c20a2772c1f65e4b08e4faf0cf95263bda8ae83f3ce6bd5106beaba84bf"),
    "build I2 m=20 weak dot": (0, "b84e47149ef82b49f60883c130d74f2257d67f810a55afd83a79326518b45bb5"),
    "build I2 m=20 weak json": (0, "179929c94fd0ba75a3223c3b70888b45d63a797f93d10af002f06b0f12f361bc"),
    "build I2 m=21 1>2 dot": (0, "c5306471232f353ade40ec4c47651b7b4b6c87b5e90676ba6f681ea6679e8d72"),
    "build I2 m=21 1>2 json": (0, "f4be00fcb7441a61871cc8327c173440baf83dd867a9a2bdb0347ad834ed52b2"),
    "build I2 m=21 2>1 dot": (0, "2e2cee1a2d27bc4b8b74d5063d3cae8300f4391b3e18e8e0ed1c2d98fab0dcb0"),
    "build I2 m=21 2>1 json": (0, "67cc19d60b2d08da789736cba40fa881583894dca0de7c2d61d32a51700062dc"),
    "build I2 m=21 weak dot": (0, "4c331bf434b30600915c575b179a4da9129bcd613063b2a68c32b645f59618ae"),
    "build I2 m=21 weak json": (0, "9286ff11c104b488a2582d6de80d05a89291ebe53ebe683825294d54b06e9425"),
    "build I2 m=22 1>2 dot": (0, "9881987246a684d797a3d4fd94c7c81d25a6aaf1b85407a99eb38d91f4ffa5ef"),
    "build I2 m=22 1>2 json": (0, "4ce869bda6b2d4862c4457397e7d8c2e7a323c3eeb9cd0ddfe5d8cac4934d4d9"),
    "build I2 m=22 2>1 dot": (0, "e9c3885664e8110f210f8257625324df413b70658b480446219541afd15d2980"),
    "build I2 m=22 2>1 json": (0, "076633bd7815fad8001f35735414e91c52ca55cbf3803e680961c9efca2880a1"),
    "build I2 m=22 weak dot": (0, "2cfa57da1569167682a4cfd9790dec3a507144c341694b99c8b9a307bb644ad8"),
    "build I2 m=22 weak json": (0, "d85924d14723e0f4bda54e1bcf2d65b6f2eea6aa423adfd21e991e92cb0bd238"),
    "build I2 m=23 1>2 dot": (0, "fabc5441ba6c74d7dcd8df876572fc790840821a755512eb2a9a3a1d3b367094"),
    "build I2 m=23 1>2 json": (0, "f51558f65ed8de77b24b10011e81209356b079eb139e6d06bceb9b9842fbd85f"),
    "build I2 m=23 2>1 dot": (0, "f23ee89da3ee8ccf6943c413b6105eaa62f89b814fac511100cc6065211f7d88"),
    "build I2 m=23 2>1 json": (0, "7cc5f9dbbdc2961a89c6731918701ce77c6210afa645a6f132858e3e4d2e2dd8"),
    "build I2 m=23 weak dot": (0, "dca2974eeac77b1b7967770bb4c6aa7154f879cc5a8c5f7002d106f9cd400a6d"),
    "build I2 m=23 weak json": (0, "700b9f8071f5b9018447456c21275f65dc2f845b65a842bd22c99f12ba93391f"),
    "build I2 m=24 1>2 dot": (0, "8356cfe37fd3ede769fa2088320d52846c01d0f76bb69b2ce53c94ff5b4b69eb"),
    "build I2 m=24 1>2 json": (0, "55c663d97e22bfbf3376173fa0f5f2c463748652092daa0dc789e4f853626eec"),
    "build I2 m=24 2>1 dot": (0, "4de1c8cf6a10be172fdb84c9e23f6cdd918670698df6469bd3aa2547260949a1"),
    "build I2 m=24 2>1 json": (0, "025ef6337b1645419521cca4a54b64a8ecb10949b250110224e119d379671496"),
    "build I2 m=24 weak dot": (0, "2bc883607cfe17cf36710532cbf10f5e9fd212d964a8fcecc08e9fbbb73184e2"),
    "build I2 m=24 weak json": (0, "992e6a7833dc6e3d808db09eb6be99627bb355a0e943fa69f2b8c39f88ea5be8"),
    "build I2 m=25 1>2 dot": (0, "11e0c73005b1bdbf015afa19582dcd92fc8195838e15181ceea6eaad61e88b82"),
    "build I2 m=25 1>2 json": (0, "d05c56bdab7c3967cb9a3586bea5a50e01012d6c817826355255b5814600f113"),
    "build I2 m=25 2>1 dot": (0, "8476f864b36e3321f50d160738c17f1e8c8a5129f24454b61a9eb764acff3d14"),
    "build I2 m=25 2>1 json": (0, "1c63b3bd414fd13aeb4ad5516d106f4c59a23a472017a70aefa8007138e3934b"),
    "build I2 m=25 weak dot": (0, "143a9212f8ce056adbd6679271b24eb7ca408a31fdbbbe917abf91c23a024e74"),
    "build I2 m=25 weak json": (0, "373dbaa60dc3b453e924bfbb8c35613ea02233917b2a8e7d304bc3f693949b6a"),
    "build I2 m=26 1>2 dot": (0, "9ec7c06865203488a7d9812413f2be746f9907fc7f0ed2c8e46f54dd1b1cfb82"),
    "build I2 m=26 1>2 json": (0, "e3def5c1a7a24410d7bd894e36ecee36f5fab67d2e907389551b1af0698c8cb8"),
    "build I2 m=26 2>1 dot": (0, "1995e8626290ac94162bcca1c6657048137d9b4d302651389c4652dfc91ce01e"),
    "build I2 m=26 2>1 json": (0, "8b64f06e13e87d38c93eee560c4c5474ce34fe69d98d644991acf9335fc383bf"),
    "build I2 m=26 weak dot": (0, "d7eea5783533ce74c0f43b3752de2a0d776a853328083d935a008d86ffeaa4cc"),
    "build I2 m=26 weak json": (0, "fee73aa97d5f447cb37f7d3e856a59803566735da0c59584b801c5e2e80b26c6"),
    "build I2 m=27 1>2 dot": (0, "16b4369bca69ac3d755306d5d1414fff1e5a05935117eb0d14809dd74252903b"),
    "build I2 m=27 1>2 json": (0, "03efddf325414cfd90b4e906dac2f5d9fe8b01aec3acc7a3a72caa3ce66f8baa"),
    "build I2 m=27 2>1 dot": (0, "1f30be58b0124ecb7f862afb4b898181ca3222ea47382a9cae025df62afc39de"),
    "build I2 m=27 2>1 json": (0, "2293471b59246d83f3c4787936c5e406bfb2ce875b0fca22ddd2f181bda05d5d"),
    "build I2 m=27 weak dot": (0, "881943d0308bb443e22709f77452940217e0283b2625ecb94aa7cc27e4214614"),
    "build I2 m=27 weak json": (0, "90dd77a466ef41b981ea09a59cc898cbc9a49b3e1ee59b6be81af9f181758a84"),
    "build I2 m=28 1>2 dot": (0, "3909b2137076988e5c752faab0031978ef81051cc13e5e972e565aa9cad3b910"),
    "build I2 m=28 1>2 json": (0, "7ac8f21e973d113111ac7b49e2f58b3629c291cbe5c0ae736c285640fcc537a7"),
    "build I2 m=28 2>1 dot": (0, "0c745dcbd31eeb9d9bd20636e7a2236b35905240fb3d091543e68ab6bfcac009"),
    "build I2 m=28 2>1 json": (0, "b80c0d81b1def3530169ea18772b0346cd2c1a1c4a53482611a7e6aea0d5b4ab"),
    "build I2 m=28 weak dot": (0, "5b2c5dc4ead3a2fcc91e550cce10158d42c7b32f324fb14710cd3ce029d2d6b5"),
    "build I2 m=28 weak json": (0, "2e2853dacc5c18894657801009b2425e960567bfd83552c9f6e02763dd5c3b4b"),
    "build I2 m=29 1>2 dot": (0, "250715e530e46c46df5f85f8eddb607ad83da2e7d113f120cd061628ca6ab48b"),
    "build I2 m=29 1>2 json": (0, "43983cf4359a59e1a302d3cb12a9d598bd1e016f9d20cf41a50c2513b9716e0d"),
    "build I2 m=29 2>1 dot": (0, "5f5c13b1ecb7cf59b273780e3cd40bb37d8df2e4a906345d5418e79585cb9461"),
    "build I2 m=29 2>1 json": (0, "f816fa226d8109df6c98166d50542bbbdc4b08080a97a9ae6dbbe2a823879182"),
    "build I2 m=29 weak dot": (0, "578f66795e468feabc590720403a6b91be9a1588482e132ffd73fe905c767e51"),
    "build I2 m=29 weak json": (0, "8806089e2a652b775f656864500467d6b6f43f1f3f92112a69265e5c06633196"),
    "build I2 m=3 1>2 dot": (0, "e60a8511d3246ecdd2eb7ce2bb779f745da08a86fc05e5ef87ae657379450e93"),
    "build I2 m=3 2>1 dot": (0, "37157e7cdc1832e0727143f5420d130c5b7b0bb98761590e726199d170bdad6c"),
    "build I2 m=3 2>1 json": (0, "67a881d6f4e5f8993112bf8329ee5ef24067c154e4061fda7f450abcde9ab2be"),
    "build I2 m=3 cambrian json": (0, "830e3f141b8a606d82d9b45421c604a6a8a2d54a4e0c9ff17d05ebef35d1f436"),
    "build I2 m=3 weak dot": (0, "55c8cc30243865737ba29d9434ec02cc2223b7675cbf0c5a908b207031e093f6"),
    "build I2 m=3 weak json": (0, "c5efaeb588528cdfe7142edf54d2425019e90cb680b29c601166dfee8d4b00f3"),
    "build I2 m=30 1>2 dot": (0, "c80eaac50be2e075c2a314dbaa97d4270708fc5e823165a33a7deeb68fd30106"),
    "build I2 m=30 1>2 json": (0, "bcc31f490f6ffb63a32c9ad1026ad43c0dd624c27a20a84bec7669df976edd51"),
    "build I2 m=30 2>1 dot": (0, "d8becef0856f859d1ae48195eb9a229e26e07ff18dcabdc759bdd2ce4df6aa38"),
    "build I2 m=30 2>1 json": (0, "4544961e6f63e4d9107f1027cda8728101ff2ce94ea7423749f0966e3969b198"),
    "build I2 m=30 weak dot": (0, "2a7249cec27dfe105fdd8a6dc46378865188fe50afa50e6cdab12a595671c0d0"),
    "build I2 m=30 weak json": (0, "7203a66fbf70e08ac2ad0780f97a7b6930e4238ec3f5e279bdd5598c39a1b632"),
    "build I2 m=4 1>2 dot": (0, "af5b71802da2f206367cb5e654b211ce556ca6a83faf2dfa7f25784dfd7e0163"),
    "build I2 m=4 1>2 json": (0, "87d79fcd3e83155097595676dec64f7a362928545911b29721308fc75370fddf"),
    "build I2 m=4 2>1 dot": (0, "4671ac3c124a0fdb23b200f9ae50e2493b81953b716df4e713780679d2ad9818"),
    "build I2 m=4 2>1 json": (0, "c75b6e956509f596936c26f4fb8454b4181b93b368610d79a142a602d22f7fd4"),
    "build I2 m=4 weak dot": (0, "ce03340f8544fde2ec45cff428b49f7106fedc0189397df4ce6bf45758bd1cc5"),
    "build I2 m=4 weak json": (0, "9c568347c68e636723a984a53697dc39b50c342cb9d843746382850eaf9d8d07"),
    "build I2 m=5 2>1 dot": (0, "3b9d603ec6e8dc91d24fa784e30caab95d056fac31235a1d7b89df0033de420a"),
    "build I2 m=5 2>1 json": (0, "7a31a20a97f10eb1ff0867a4c25b7943a7f98d4dbbf31926f9224d78db16f387"),
    "build I2 m=6 1>2 dot": (0, "90f0d7fcc453f26bfb49d4e4fc4540a240df9a6603ea42bddd0d48331fc1f947"),
    "build I2 m=6 1>2 json": (0, "855fbdd7361cb47d8ea47ff502fdbd67385668f9bb62bab9956d25c686b7a8d6"),
    "build I2 m=6 2>1 dot": (0, "3cbea1e029124ba5ec0478b5d74f0b049080cc498c176751e5ed8c2e8d3dc82d"),
    "build I2 m=6 2>1 json": (0, "94da2060f461e32a4d2ea514ba42c34f6474565b6a56cecfd5fdbc91ed0bd265"),
    "build I2 m=6 weak dot": (0, "4294853826364f581c75b34e9eb0c52c25eeef34845ab3e8d19a76ee8b74cab1"),
    "build I2 m=6 weak json": (0, "89cdd3ab845a7611a0d6ce28a1968fbdc4df2309f60024f96a0c29c926992156"),
    "build I2 m=7 1>2 dot": (0, "dc12b3bb9e675dff823484516335d7688054e126284e016b0fbfbcdf75dffae9"),
    "build I2 m=7 1>2 json": (0, "9d69a2dc0611a042ad211c9a533a5ff143ccf127ba6441b6f3825bc104ec9f80"),
    "build I2 m=7 2>1 dot": (0, "17c5ab3c3e73cb9b91e478887ad5b53b0d75b0d51745f69b22c7be13a5623e1b"),
    "build I2 m=7 2>1 json": (0, "62166fdaa21f1c8c04b06dbc2d8442d3f9e7620cff31dce05046663091f2a8cc"),
    "build I2 m=7 weak dot": (0, "576a215441d43bbd9d28359a55c09a580081085ed86e14ddb8957d9677d7f30f"),
    "build I2 m=7 weak json": (0, "91b205fe22a439aaadbc1e064ccb726215b55c132e529bf06996a8f8bf76bf8e"),
    "build I2 m=8 1>2 dot": (0, "58b36371f5b3ee6d361bbdaf4a8b328898b213e769c63d64f5765d7926f095b4"),
    "build I2 m=8 1>2 json": (0, "548f75a4f7c595454dd5c70ce027bba145fc7ded35cbbe9f7f7f0d97f86f0698"),
    "build I2 m=8 2>1 dot": (0, "4f7a165d2790cd6a49a739b30f4cfa86a5f753489442cc329aa54e0b7696fe85"),
    "build I2 m=8 2>1 json": (0, "f0f98a0dcbcaf49f84c9db68cedf8f5fa92c1bb7801925d8e554bbb4aa0034bf"),
    "build I2 m=8 weak dot": (0, "25a2238da6ff4290582353eae3afacb9e66ee4eb86604dc4cfcf9ca56a181cc5"),
    "build I2 m=8 weak json": (0, "9ec927d194b4a86ae558495c1e3d951556f2887116a8b4a81f907997762bd3b9"),
    "build I2 m=9 1>2 dot": (0, "6c16e4d4021c70e61f5bf72f5dd6b4694852b4425919b0b15d569d88741eb14f"),
    "build I2 m=9 1>2 json": (0, "7e2d8a2b525e55a5cf571f63e497e12e54554405c3fc1909419417ffdef80113"),
    "build I2 m=9 2>1 dot": (0, "a78afd2825eb2120b458292bebc0c4c4941c51f003c6506029f50870450f2b47"),
    "build I2 m=9 2>1 json": (0, "e0b027dd25a6dd3f25793e6138f643b884404525a5d75154b3839b39de8c2732"),
    "build I2 m=9 weak dot": (0, "7345b445947e8a4ee583cf11377c4ac5feefe8fdfda643391b346058c616dfbf"),
    "build I2 m=9 weak json": (0, "81a0aa0b8d245266feab04a71305fd0821fbdaca6c5b1714fd6fab599f0c7c74"),
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
    "verify b-tamari B max-rank 3": (0, "1b5d36edf877df9ea3e1fa6b6fe7717e9280e66f8b1930f84cabf92252ede3d6"),
    "verify b-tamari default": (0, "e0560d930fd5f9e037baa23495694ed9047ee2148dd89abeb962fa32d6389949"),
    "verify b-tamari default max-rank 3": (0, "1b5d36edf877df9ea3e1fa6b6fe7717e9280e66f8b1930f84cabf92252ede3d6"),
    "verify catalan A": (0, "5331f3557d5bb26d086b752b72fae01123ac82791feac68059d5ae28467f0232"),
    "verify catalan A max-rank 3": (0, "6e97b52a5015bca0545a7e3bb475c18ea1721cd0cb4b704e93a123b94eed0097"),
    "verify catalan B": (0, "6572ee7d6ee61e27e3ead3d2f50c4697cca924745be6ac935c45e1f195275529"),
    "verify catalan B max-rank 3": (0, "f939e5798d0aed5c386a636ee9c07a14a9c1d7b40714909cf636dccd19d7d0e4"),
    "verify catalan B max-rank 5": (0, "948b9d8cb886acc2b1569d5a1b5e13221fa5beb975493026ff5ebdd8ed369c5e"),
    "verify catalan H3": (0, "18df64fc42dbf7349cc438bcea3f42e01ce19b07e1efc2a369ef0abaafeeee5f"),
    "verify catalan H3 max-rank 3": (0, "18df64fc42dbf7349cc438bcea3f42e01ce19b07e1efc2a369ef0abaafeeee5f"),
    "verify catalan I2": (0, "c7b924dcd670c9ca3213360121eb86a222786d364827514927006ac782a39abe"),
    "verify catalan I2 max-rank 3": (0, "9ee90e612e4481d0c515f9d45dd7e91034c6bd9f09a3f2de11e58eaed777a8b8"),
    "verify catalan I2 max-rank 30": (0, "b4a092ec1e5f6799135e0e2566eb3d1f2ab2886e8b3b673f891ec08fcb1d1447"),
    "verify catalan default": (0, "5331f3557d5bb26d086b752b72fae01123ac82791feac68059d5ae28467f0232"),
    "verify catalan default max-rank 3": (0, "6e97b52a5015bca0545a7e3bb475c18ea1721cd0cb4b704e93a123b94eed0097"),
    "verify cluster default": (0, "5317a56e678ec15f57fc80e4ebcc6cbe43b8c979422f0f98dafff76c4f4b5bb9"),
    "verify cluster default max-rank 3": (0, "ca1c2916241c8b34c37d9e97b4c2b41de2e074728bfdd1dcc8178c0e613cf6d3"),
    "verify congruence-eq A": (0, "8e4e460beee39ae342612a64e66147b6069b76d6fa0f2f4ca0853bf20d3ae0bb"),
    "verify congruence-eq A max-rank 3": (0, "e9d735e01d855898f76706fc9fce1fcbf4109a2de029185a5110d54c3acfc484"),
    "verify congruence-eq B": (0, "9a230e78c095f6793c6a9a97d8d2dcb3de1079113f2aa9e1f9b5cbc9b86a4ec2"),
    "verify congruence-eq B max-rank 3": (0, "9a230e78c095f6793c6a9a97d8d2dcb3de1079113f2aa9e1f9b5cbc9b86a4ec2"),
    "verify congruence-eq default": (0, "815c55381eedadf73905e0da88a62f2e52aba7e31e3a27f43ce993509ddbffbf"),
    "verify congruence-eq default max-rank 3": (0, "9c077606460f340b10d6e7d9d31bbf29f207a84429aa1727b7d5b623018c4f50"),
    "verify descent A": (0, "8fa0328601e23c41d1c66ec9c9c36133291758e5730aec10687f1a9e770797a5"),
    "verify descent A max-rank 3": (0, "21c89f26a9a5055bc214cd0abc72130edfc60695f6621fd393597683eeb8bae3"),
    "verify descent B": (0, "3244ed7680f3c9c72bbe442430574bac23e845adaad1d9ec6abb44be37db0074"),
    "verify descent B max-rank 3": (0, "3244ed7680f3c9c72bbe442430574bac23e845adaad1d9ec6abb44be37db0074"),
    "verify descent default": (0, "8ba3af0b96e4584dcb75b97cfdf5a345455ae5c06827953203c8a6ba13b6d0bb"),
    "verify descent default max-rank 3": (0, "5d1f0351ce53f713a1895a446ad59e33a4194789674406313dd054e40b83025d"),
    "verify fan A": (0, "7f32646e07c68b692a5e23050abe77599c65a5ad1804a665678e3f55e139d398"),
    "verify fan A max-rank 3": (0, "2d92f64827eb4f900b15fee1364664514e283d59a33cc8dc1c3b8e8584703d57"),
    "verify fan B": (0, "024b02c280fc8e7d0f11cffcdd82fcf90d77a607358678325d01f7269467df99"),
    "verify fan B max-rank 3": (0, "024b02c280fc8e7d0f11cffcdd82fcf90d77a607358678325d01f7269467df99"),
    "verify fan H3": (0, "769e9bfaa981a552e2e0b0baafb2b6dd76750923efb0d93a7a870494de274ea6"),
    "verify fan H3 max-rank 3": (0, "769e9bfaa981a552e2e0b0baafb2b6dd76750923efb0d93a7a870494de274ea6"),
    "verify fan default": (0, "d03bba0f9eb506c7a8af5d63adc9447efb36082ccc5ee623c192f4e5aa800e62"),
    "verify fan default max-rank 3": (0, "f694320767223ff8992ecdecffa6b8c12d908950adfc96a66648d3d2f45122f0"),
    "verify fibers A": (0, "2760b609d66a7dd56da9b0605dec40c0065901b2f0f43e4f7b5491cbe0f208f2"),
    "verify fibers A max-rank 3": (0, "ce86853904755399c17be6817c40c59693e185d35300cf1880069b876d3c4bdc"),
    "verify fibers default": (0, "2760b609d66a7dd56da9b0605dec40c0065901b2f0f43e4f7b5491cbe0f208f2"),
    "verify fibers default max-rank 3": (0, "ce86853904755399c17be6817c40c59693e185d35300cf1880069b876d3c4bdc"),
    "verify iso A": (0, "48c1705415f45d28ef281d8b43a184ba9409ef34d20462dbb7fa38b446ace845"),
    "verify iso A max-rank 3": (0, "830dae7415f905b22550f4199c6bf4f3106e9d8b7fecf75ad743e65fbb5f45de"),
    "verify iso B": (0, "507656fb6475b7f75261fcbd214eca0d2a00082ecf95173164567493aa8a7deb"),
    "verify iso B max-rank 3": (0, "507656fb6475b7f75261fcbd214eca0d2a00082ecf95173164567493aa8a7deb"),
    "verify iso H3": (0, "8fbf0ed43a943be0db64daa5acf38496c1d9e477ae15957119d5ab1a8462ce64"),
    "verify iso H3 max-rank 3": (0, "8fbf0ed43a943be0db64daa5acf38496c1d9e477ae15957119d5ab1a8462ce64"),
    "verify iso I2": (0, "422cf570305aada881ccd318cd7d505f010cc3f97960bff582d97498fc1a6393"),
    "verify iso I2 max-rank 3": (0, "54961f15f0403f5b29939f68a7e24f8b368ef983e651edd5715984a53a878e57"),
    "verify iso default": (0, "281166d62324175319158f41e816c73cfc5bf94c2dda2fa6cd554dcf7dbeeca7"),
    "verify iso default max-rank 3": (0, "31f05e766246c7708f6b89ec5504e1431faa7a2119a13fb18effafe94e2fd9bd"),
    "verify mobius A": (0, "76b88a140ab5e4b923d6548517735ea9ae184f1e84135a6b1dab2614be261f9d"),
    "verify mobius A max-rank 3": (0, "dbb9ba4fa218efef08500cb628ca3fd53209d921ef5596ddc5d8cf97c5a6878e"),
    "verify mobius B": (0, "0274bb357aa2a2a2964e076905eaa792cf1ba4333e686cade16f23c060014dfe"),
    "verify mobius B max-rank 3": (0, "0274bb357aa2a2a2964e076905eaa792cf1ba4333e686cade16f23c060014dfe"),
    "verify mobius default": (0, "bb3f0512b0cf69064dd1219297de3150911d52f03ef9a05c005c80b488fb3535"),
    "verify mobius default max-rank 3": (0, "7d865c3aa39060d0e0b4ae689827a575437e6007d1f73fd6a54011fd23e02f4c"),
    "verify patterns A": (0, "d9ab4d3e2d1978f6d83b9bfededb426f92e1ca51d76502300f03e4030eb7cfa5"),
    "verify patterns A max-rank 3": (0, "9dfeb487238789b110cefe385a80e694d6ae9da00d608f7e230c3604abf5dda5"),
    "verify patterns default": (0, "d9ab4d3e2d1978f6d83b9bfededb426f92e1ca51d76502300f03e4030eb7cfa5"),
    "verify patterns default max-rank 3": (0, "9dfeb487238789b110cefe385a80e694d6ae9da00d608f7e230c3604abf5dda5"),
    "verify shard A": (0, "91c338c9c982b99f516a91a02565b1e4578783969b1227e57de8cf34ad844f43"),
    "verify shard A max-rank 3": (0, "bf10f96d14372cbf1dbc40023e4f9114b1266a03f194c3b492ee532127cbdf46"),
    "verify shard B": (0, "67f1786c6aa0675f90900b40435a7fa01e4704a96359916ce122b2fc28fe1ec2"),
    "verify shard B max-rank 3": (0, "67f1786c6aa0675f90900b40435a7fa01e4704a96359916ce122b2fc28fe1ec2"),
    "verify shard default": (0, "568bb65a6a9ae511aeffcb8a46889335e0e60cf6091832746759267ebb95bf8a"),
    "verify shard default max-rank 3": (0, "104215f0138e96580ea9078d56e314329b211e440bc6099c166e87b61f95a366"),
    "verify sublattice A": (0, "ae6da98d6ce9b6987884b890815ff8cf26927d3eede73134dd5d482986a024f3"),
    "verify sublattice A max-rank 3": (0, "d9acec9b8cef556bd46e8c7663f2b23b191ff8124f44a1afb3cb11a49882fa28"),
    "verify sublattice B": (0, "8a5cdf7109b9ad762973ec289bf1f0889e213b98219fc67ef0490e035f6f4410"),
    "verify sublattice B max-rank 3": (0, "8a5cdf7109b9ad762973ec289bf1f0889e213b98219fc67ef0490e035f6f4410"),
    "verify sublattice default": (0, "4399e62dbcd2136eddcbc231308b1beeda0811c8f3d42e1a62e8eb2544d55a95"),
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
