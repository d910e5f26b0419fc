"""Golden CLI outputs: the SHA-256 of stdout and the exit code of quick
commands, in text and JSON.  The first group was recorded at commit
b1660a3; the second, the `limit --mean` and `limit --variance` outputs and
the `expand` of exc^4 and cyc2^4, at commit a8f3444; the third, the
weighted and adjacency-constrained sums, at commit 3568f55.

A change to the engine that keeps its answers keeps these bytes.  The
products (moments of order 2 and 3, the `expand` of squares and fourth
powers) carry translates whose weights and adjacency constraints were moved
through an injection; the `biv` square relabels non-constant weights of both
factors.  The limits pin the leading-degree ratios of the mean and the
variance, including a weighted sum of statistics and a constant.  The third
group pins constrained sums: a sixth-power weight, weights on positions and
values constrained together, a run of three forced adjacencies, and a
translate whose support exceeds n at the evaluated class.  The fourth group,
recorded at commit 2774fbe, pins the deepest moments whose last factor is
streamed into type sums: the fourth moments of exc and cyc2, a path type of
N(123), and `verify` of moments up to order 3.  The fifth group, recorded at
commit 215af82, pins the path factors of the arc count: the fifth moment of
exc and the path types of N(1234), up to 9 path vertices.
"""

import hashlib

import pytest

from cycstat import indicator
from cycstat.cli import main

GOLDEN = [
    # recorded at b1660a3
    (("moment", "exc", "-d", "1"), 0,
     "d22bff504441049ac7a10732f87926efe89fc197f24d3dc1830797c20cfbd1d3"),
    (("moment", "exc", "-d", "1", "--json"), 0,
     "ca1644390668becfce08597868a86bf6fd39f9740737819a3bf2aa2a3999c124"),
    (("moment", "exc", "-d", "2"), 0,
     "d4ac1f2262222797cc1999aef6ae11df2a5018c314e89d88b651df977dd8c4fe"),
    (("moment", "exc", "-d", "2", "--json"), 0,
     "d27f7845f8ba92b0aa025a8e4ad4eece4cf3851474c541a01ce3c35621d9bfbe"),
    (("moment", "exc", "-d", "3"), 0,
     "8af71956ecdff2863b1364f6a469511085287fb6b4df002ecc8b42ac8093ccd4"),
    (("moment", "exc", "-d", "3", "--json"), 0,
     "833ff868e855069a008cbef536abe5fa26e66290b4b76c0ec99375898ed27579"),
    (("moment", "maj", "-d", "2"), 0,
     "9635017d42a54496fbfea099a7eaf413c287a9ef7c96e57b8ccaa2aefea41e97"),
    (("moment", "maj", "-d", "2", "--json"), 0,
     "c8f942c499d5d43c0f1776bdb5f47af0934f8b17085f65752f3819a716e15880"),
    (("moment", "des", "-d", "2", "--variance"), 0,
     "4cd7e420aa4a6f77b86237647cf0cee5a91a2cc66f7976f7d0d1db59fd991d96"),
    (("moment", "des", "-d", "2", "--variance", "--json"), 0,
     "a22ddf4bb0259e7805ce9a1c5304a23a45bf2c5b636d89cf784ff0e7e813dcc0"),
    (("moment", "des", "-d", "1", "--lambda", "4,2,1"), 0,
     "4afc27e7493571bb589aa18b79eb2ff77d2b55b0ae41a19e5faaa2c5c4b3fdcf"),
    (("moment", "des", "-d", "1", "--lambda", "4,2,1", "--json"), 0,
     "754ccf0e5a3b112c0f5ad9ded469bcd74744fb08360aec869cc2e41f0891e4db"),
    (("moment", "exc", "-d", "2", "--variance", "--lambda", "3,1"), 0,
     "831ef34be22f303bbd51b39be112d47b6078c392e5d8435a437c80ec2eb16ac4"),
    (("moment", "exc", "-d", "2", "--variance", "--lambda", "3,1", "--json"), 0,
     "836cd68c5aa9517c92a1408ebfd0e440f4b549b7645a8f75dcc249f04af1b3ee"),
    (("limit", "exc", "--mean"), 0,
     "6decbcd25d12c650c27406ad6a7052e1105756b5aca198d9499fb5efbca78b5b"),
    (("limit", "exc", "--mean", "--json"), 0,
     "7f3abbdaaa7c7a06e647c01e063ca6a8233012582c04d5d0339024f735050284"),
    (("limit", "N(12)", "--mean"), 0,
     "fe5674f6d6a641e81a27529a76b957605876c05e84149725d1d89568a372ed07"),
    (("limit", "N(12)", "--mean", "--json"), 0,
     "b1ce256f95114f569e61431a435c8fb73970118d79e692f1ca8b6e88c5be803a"),
    (("limit", "exc", "--variance"), 0,
     "53913d86b6b50575789836a26d39e4a8c1b7be330509b8d9141d7ef654058326"),
    (("limit", "exc", "--variance", "--json"), 0,
     "d039d0f87ce8947ded04b823d56cf9cbccfdc69c43143ac34161b3de694503eb"),
    (("limit", "fix", "--variance"), 0,
     "88b222f642114dd1a24dd09f310e5e53860137815bb3deeeabb42223b76e7098"),
    (("limit", "fix", "--variance", "--json"), 0,
     "4a5d18560f6a0a39766f5f4f05d0be2f3e0df9d2702ab73db8e34415e260d4fb"),
    (("verify", "exc", "--nmax", "5", "-d", "2"), 0,
     "c7680adfa30706cc672ddd6fd7effeaf460eae4498aa3f6f496584d009fe96a6"),
    (("verify", "exc", "--nmax", "5", "-d", "2", "--json"), 0,
     "1fe6c2aaf22081f5828b901a68b7102db9207b3ff391db058c1d236c6e5436f6"),
    (("verify", "biv(21;A={1};B={};f=x1;g=1)", "--nmax", "4", "-d", "2"), 0,
     "d7d655a062d976473ae1e851984d3a498a8e394fcb7c5c6361962540c0e9c22c"),
    (("verify", "biv(21;A={1};B={};f=x1;g=1)", "--nmax", "4", "-d", "2", "--json"), 0,
     "ca462a48644060bc8c91c0105984ce4540cc3291500954931ed15bf05f7b3bf9"),
    (("expand", "maj^2"), 0,
     "330f3a600295ed1ae096ebb41473fc697bdd56e8edeaad4b0c2cf865dcb1c1a0"),
    (("expand", "maj^2", "--json"), 0,
     "a1fc242e7c2117e2acbc8d6e49f73fe6a9979b6c499ea31bc66b4fe83a8d2481"),
    (("expand", "N(21;A={1})^2"), 0,
     "f30b24a427dacba0cb78436956b9433275edc9a1718c0dde387e0fda8c443a87"),
    (("expand", "N(21;A={1})^2", "--json"), 0,
     "c0d6d172da47ce7f72ef6f51bac1e4c113263127278d3c310d4286345dc7bc60"),
    (("expand", "biv(21;A={1};B={};f=x1^2;g=x2^2)^2"), 0,
     "a2e61088c17d7220a288e1a8d5c930d3cafafbac5fef4be502168cc0001cd06e"),
    (("expand", "biv(21;A={1};B={};f=x1^2;g=x2^2)^2", "--json"), 0,
     "fc48c0b3e4ab050bcc01b050922a052760988390959aca17c3e22ffa754a29ca"),
    (("moment", "bogus(", "-d", "1"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("moment", "bogus(", "-d", "1", "--json"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("verify", "exc", "--nmax", "9"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("verify", "exc", "--nmax", "9", "--json"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # recorded at a8f3444
    (("limit", "des", "--mean"), 0,
     "5d0c39ba2fb1289a71ac7918c57084f60d4744c5ea842371ce08aeea72f9b127"),
    (("limit", "des", "--mean", "--json"), 0,
     "d73793b3320a372ef0b659b467a72b2886a390eb570c6fe818d616e0dbcc71d4"),
    (("limit", "maj", "--mean"), 0,
     "20092517e3ffd2a6a9fd07ae2d7ce8f877cd57dfd3563d8adbf0e842ff880844"),
    (("limit", "maj", "--mean", "--json"), 0,
     "0790cbeba8e3d2a5dc4b077cb4a8846637f66fd3607135661aa9180b243f16d0"),
    (("limit", "inv", "--mean"), 0,
     "b82ff3f385980038cc3c9c8b260a4502a06ba1831fbb1453b8805b50ab95419c"),
    (("limit", "inv", "--mean", "--json"), 0,
     "f4389370aa10a5be52fa6e52f8327ff296fd9584f17ca3560dce983496c5f102"),
    (("limit", "cyc2", "--mean"), 0,
     "4968b14253ad4d4b2901f87d0562edd171a1db923cede9a6cddbe3366c209bec"),
    (("limit", "cyc2", "--mean", "--json"), 0,
     "57fbb9b7f587fcda91a98a5e573e7599a11f199fab33bc77873ca73d80b86776"),
    (("limit", "fix", "--mean"), 0,
     "bd7d3272bfba29a6579cd9173b466e802ef5af43d33aaa3a830b3448ee8935a8"),
    (("limit", "fix", "--mean", "--json"), 0,
     "0392a657b22fefaf6a5558e76937a0b06054c6a0afa33f6bc71c58ab27c5daa0"),
    (("limit", "N(123)", "--mean"), 0,
     "37fde8750cc90b25d5fa4e9237fa0e93d39d316a5cee71b01e5912f51f7b9143"),
    (("limit", "N(123)", "--mean", "--json"), 0,
     "e1514075d8f67e618770aebbe489fb4abc19488680bbaaaf4014d02e23ee94d0"),
    (("limit", "2*exc + 1/2*fix", "--mean"), 0,
     "61f8664e42e7bfb56b28e8fcfba6eed55c7207e1689e5c1addc0e56fc970f906"),
    (("limit", "2*exc + 1/2*fix", "--mean", "--json"), 0,
     "df6d983f51648ac42001707b2dd1b63b5aec3642f343ca1c232a6bb0532cf531"),
    (("limit", "3", "--mean"), 0,
     "2143813be92907c1ac4db972043de3461ad9c7f1b6ad846937fbc7f681c959d4"),
    (("limit", "3", "--mean", "--json"), 0,
     "23e8fcd801b7e44a24241fa4958588aae05ecd43283793a8cfc3ff8e5d047569"),
    (("limit", "des", "--variance"), 0,
     "0ee1ed3bf366d81351f55b5787b2babc49c1aa0cc74156fa3b3cdaff59cf1181"),
    (("limit", "des", "--variance", "--json"), 0,
     "de41b44bb5333a76c47ff999e02273e9adfa73f920f27c8701a3a5729a56f329"),
    (("limit", "maj", "--variance"), 0,
     "084325cda38758f33499a7d68f5c4f3c0cd8df041d59e20b39f6d9a96d34f7e5"),
    (("limit", "maj", "--variance", "--json"), 0,
     "8ae5408b5674c8df65b98899cbefdd4575386cead2ffbc6cea9c4c374cf24d05"),
    (("limit", "exc - des", "--variance"), 0,
     "57f5f0e1bc7eee721720f1ab03bbdb8c4ac1f6e981f39b6d1a69557cbd5b11f0"),
    (("limit", "exc - des", "--variance", "--json"), 0,
     "8df598dcdf6e6024c0224bc7fc46f2362293fa33b39b5527c35e34c946bdb605"),
    (("expand", "exc^4"), 0,
     "1e2bda760419649af2e4e3626246279c7d2f931fe85de7e83b03c636d162eef0"),
    (("expand", "exc^4", "--json"), 0,
     "aeb1d1d5286fc9a3d6cbc6d5596ba9ff032ff2428bf73304d8fc04172fc52897"),
    (("expand", "cyc2^4"), 0,
     "489e063126fc0555bb5aad65409c4f96514f2ea3519b183b277a317b87f48541"),
    (("expand", "cyc2^4", "--json"), 0,
     "d52c58b7c8324a474946d6687977b8b73c2c182a4bc9c5fcbea8e5fd7dc61a57"),
    # recorded at 3568f55
    (("moment", "biv(1;A={};B={};f=x1^6;g=1)", "-d", "2"), 0,
     "d6653170a4edf63b94d0d56977ac374740e749576c79ab8eec3bb43866ecd3ce"),
    (("moment", "biv(1;A={};B={};f=x1^6;g=1)", "-d", "2", "--json"), 0,
     "cb0e85818fab1762fd33a5ea1fad6712c082f178a40371b46bcb7a209b83b9f6"),
    (("moment", "biv(21;A={1};B={};f=x1^2;g=x2^2)", "-d", "1"), 0,
     "3ea2c990ade6f8e6d9664c1c203194dfc8b37565679595f0aaebdb8f3768b344"),
    (("moment", "biv(21;A={1};B={};f=x1^2;g=x2^2)", "-d", "1", "--json"), 0,
     "c8d8717aaf090c34db0a2e0c97b914fd435d50b78af63c54b78928392f840ca6"),
    (("moment", "biv(12;A={1};B={1};f=x1*x2;g=x1+x2)", "-d", "1"), 0,
     "5ba6e0308966fa5fc3cf03ff6e49f44cfa35412d6899e9b176d9949daa8b428d"),
    (("moment", "biv(12;A={1};B={1};f=x1*x2;g=x1+x2)", "-d", "1", "--json"), 0,
     "2c56e5c6e722b273c9ab1cf9a5463bd64218572554b078edb89647c3b119cdab"),
    (("moment", "T(U=(1,2);V=(2,3);C={1};f=x2)", "-d", "1", "--lambda", "2"), 0,
     "f5492dae6fc63a482148642e566aba409c8eb7cea066586057b0924bf3f4c3a1"),
    (("moment", "T(U=(1,2);V=(2,3);C={1};f=x2)", "-d", "1", "--lambda", "2", "--json"), 0,
     "953fafd25cfacee8dc4416f0b9ca9e25e96665e93a695df642d43187e2c227f1"),
    (("moment", "N(123;A={1,2})", "-d", "1"), 0,
     "c65efda1b5071a5007b2f6386a9d6248bc78e89936cf0b1e859a0cfb589b7c9c"),
    (("moment", "N(123;A={1,2})", "-d", "1", "--json"), 0,
     "02e38aebcc1b569d8c1e584b1efc7e158a63dbf35771e3f5bf2e18b48236651f"),
    (("moment", "maj", "-d", "2", "--lambda", "3,1"), 0,
     "93216c3a9217c42b4a68f6372168412251cbe0b70bc94a91c402f2144b73bcfd"),
    (("moment", "maj", "-d", "2", "--lambda", "3,1", "--json"), 0,
     "271e3624397617af99fc808b7f424be91df698cfecd9798b84c8d7c0a274f1fb"),
    (("verify", "biv(12;A={1};B={1};f=x1*x2;g=x1+x2)", "--nmax", "5", "-d", "2"), 0,
     "c7680adfa30706cc672ddd6fd7effeaf460eae4498aa3f6f496584d009fe96a6"),
    (("verify", "biv(12;A={1};B={1};f=x1*x2;g=x1+x2)", "--nmax", "5", "-d", "2", "--json"), 0,
     "5ee08fa695efb90416e3c0a278baa7f10bae89f769242e7814e93aecf3d695c6"),
    # recorded at 2774fbe
    (("moment", "exc", "-d", "4"), 0,
     "1692cdedb3412e9ccc2b3bdc6f3d7eb0e6203fdfe532dd7df2c72d0fbafcfadd"),
    (("moment", "exc", "-d", "4", "--json"), 0,
     "f3637197dd556731990d4672807ab586496bb5d1480bd3233bed749f945a4689"),
    (("moment", "cyc2", "-d", "4"), 0,
     "16c1137e060eb14782922bad55dcb104259a7271996ddcfe890e575e010822f6"),
    (("moment", "cyc2", "-d", "4", "--json"), 0,
     "9fdabcc0b9ec361edd4b067e58d22fee9d02b1ad55592c62fe3fb637e18f0b0b"),
    (("moment", "N(123)", "-d", "1"), 0,
     "db255d851932ad5994c9cbad66f0713159f52796dcaa9062aeea2c9b3af96b36"),
    (("moment", "N(123)", "-d", "1", "--json"), 0,
     "84980b4a95ca8a8cbd26861f52745dceacc12b7baa3306ed00cd63370b5843fa"),
    (("verify", "exc", "--nmax", "4", "-d", "3"), 0,
     "52b46e7dcdfc8a0b147b28320bebaba0fb11785991bb20a300dba1065d9ea181"),
    (("verify", "exc", "--nmax", "4", "-d", "3", "--json"), 0,
     "f3c9766d3edb93909b4cdca488f2e78e4036505d6ec361b0393ba137df226284"),
    # recorded at 215af82
    (("moment", "exc", "-d", "5"), 0,
     "9cda1debd2defb7d53433fe92ab8f160eaf110461ac66d6f7b88ac1b8ba3d088"),
    (("moment", "exc", "-d", "5", "--json"), 0,
     "a2c6c88b8bf98e803b3d350a53baad6b38e0dfebcbd2eabd7cae55c0156e4dc4"),
    (("moment", "N(1234)", "-d", "1"), 0,
     "159a5ab8acd90a9a6ed927be1c5ef377e08379d7fabc92afe225ae21f556ddff"),
    (("moment", "N(1234)", "-d", "1", "--json"), 0,
     "670d417d564b5e3ffc5d169aa3f7deb88c4a2a48d2bfd8d1b6c05e3d7e2f4760"),
]


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_golden_output(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_golden_output_without_contract(capsys, monkeypatch):
    # the path factors come from the arc count, which contracts no pattern
    def refuse(*args):
        raise AssertionError("contract called")

    monkeypatch.setattr(indicator, "_CACHE", indicator._MomentCache())
    monkeypatch.setattr(indicator, "contract", refuse)
    argv, code, digest = GOLDEN[4]
    assert argv == ("moment", "exc", "-d", "3")
    test_golden_output(capsys, argv, code, digest)
