"""Byte-identity guard: sha256 digests of CLI stdout on fixed small inputs.

The digests were taken before the graph, clique and circle pipelines were
merged onto one core, those of the 7- and 8-point circles before circle
orders stopped being tested for submodularity, and the circle shapes with
``n >= 5`` and ``canonical-tot star7`` before rule (F) kept only undominated
state and the canonical extraction ran before its precheck; any change to
an artifact's bytes fails here.
"""

import hashlib
import json

from totkit.cli import main

GRAPHS = {
    "path4": "1 2\n2 3\n3 4\n",
    "two_triangles": "1 2\n1 3\n2 3\n3 4\n4 5\n4 6\n5 6\n",
    "cycle5": "1 2\n2 3\n3 4\n4 5\n5 1\n",
    "star4": "0 1\n0 2\n0 3\n0 4\n",
    "k4": "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n",
    "house": "1 2\n2 3\n3 4\n4 1\n3 5\n4 5\n",
}
# name: graph, run through canonical-tot only
CANONICAL_GRAPHS = {"star7": "".join(f"1 {i}\n" for i in range(2, 9))}
# name: (circle document, order function, m, n)
CIRCLES = {
    "circle5-cycle": ({"points": [1, 2, 3, 4, 5]}, "cycle", 1, 4),
    "circle6-complete": ({"points": [1, 2, 3, 4, 5, 6]}, "complete", 1, 4),
    "circle7-cycle-n5": ({"points": [3, 1, 4, 7, 5, 9, 2]}, "cycle", 1, 5),
    "circle8-cycle-m2": ({"points": list(range(1, 9))}, "cycle", 2, 4),
    "circle8-inline-zeros": (
        {
            "points": list(range(1, 9)),
            "order_graph": [[1, 2, 2], [2, 3, 0], [3, 4, 1], [4, 5, 2], [5, 6, 0], [6, 7, 1],
                            [7, 8, 1], [8, 1, 1], [2, 5, 0], [1, 4, 1], [3, 7, 2]],
        },
        "cut:inline",
        1,
        4,
    ),
}
CIRCLES.update(
    (f"circle{p}-{order}-m{m}n{n}", ({"points": list(range(1, p + 1))}, order, m, n))
    for p in (6, 7)
    for order in ("cycle", "complete")
    for m, n in ((1, 5), (2, 5), (3, 6))
)

DIGESTS = {
    "canonical-tot path4": "ae31b9380f38e74c8d636840056f767e0789132d05f5021aa78833c3346d064f",
    "clique-tot path4": "e8d4dcc113f103a2725cbad40298b872daef1209d1e0c57104192bc26e5319b9",
    "tot path4": "62876e1dc43c1a36879dc9e9b36100434031e0aabcc1d8d787190c679cb3d273",
    "tangles path4": "b09b1bc96bf2e4afacad6b36670d40fe49fb28ebff95ee11877e505f288879da",
    "canonical-tot two_triangles": "f39501174966cac8bc63217532b3bf675691d4b37376563334305760c230d1ba",
    "clique-tot two_triangles": "08ce2d38bb04898064ac6feb3d0b9e619fafabc6fa8ad676aaaf63aa31757c44",
    "tot two_triangles": "c968b68fd88d55d7e68d8e4c128bd2546e468cb538bf3a2d5419301bea349038",
    "tangles two_triangles": "ae16bffb60a118f6eb574e065b3ec4768dce837d517686b3aa187bb315f98cc0",
    "canonical-tot cycle5": "a469e52599ff95f4b355b15a092fcc2cf131e767074ab9840c8513c51f4c8279",
    "clique-tot cycle5": "8134c9dd50f90c3d54484b9befe3ba9870d185e74699ff64671f24d5feeb6618",
    "tot cycle5": "2f9934c65552e8d988bd14a2bcdd62852c908a8e30a00a57f86a108b63f53186",
    "tangles cycle5": "a2eaece58730bbb75b560bb666886c127bf25db962bdf485d28b1b001f12f52d",
    "canonical-tot star4": "ab4f6e024caba8d306a41be8c0a87f3b9602d146184b1cd26e9c555e922c9dab",
    "clique-tot star4": "91c81b08a82c39301aea97351f4e8dd41e18573bedb5ec0d70afda56b34015a9",
    "tot star4": "fbda892aab499710e73ea1dc3dd4efd389893a9c90daea8f205ba8e3337fd3bd",
    "tangles star4": "02411fa4284c8604728877f44d3f85ae4d4b445520f63d4d2db2d0d980012da4",
    "canonical-tot k4": "de2b3963e3201b0364b0a412c8bdd781337865197c77e347562e11da6d781645",
    "clique-tot k4": "f1631d58895dc89ac26846ad7713d2903292a39b4cded832385cfdda0ed5845f",
    "tot k4": "f38f91f1a20e6a458e42b8a5c26dc05656e6bfcb274a164212aba2fd14104401",
    "tangles k4": "5180da31a0809f75c4e1c5e708259dc5471688823761b1edbadc3896c95c25f6",
    "canonical-tot house": "1e784957c1243ab8c62c711f77014e1b70d9cfe6f5ba2efac7ac04d032ec30c0",
    "clique-tot house": "87dd5f96ba219d6f2b87970aab5f049e0155f3f98abdfee6ed81b57acb9edde2",
    "tot house": "cb4b8e472b6b150680da2bba2bf16aac39448c328dab79698136065225a607cd",
    "tangles house": "d36834501e48b218dc85c004ac02e0e3c16fa0e931d678dfec4c96107ad2cfde",
    "circle-tangles circle5-cycle": "ff40c933cb4e51c7a9c1eafb855d86579603b867e569ae04e32ed46395ba083a",
    "circle-tangles circle6-complete": "5c5f7079819783092a2995f81d2004195fef0ba69c04c8fe39b660b5c4ffd8ae",
    "circle-tangles circle7-cycle-n5": "f821ca573ba4f6381183b68bf4c6e7551923c2d8fa4a5b72ae68b897a4c2661d",
    "circle-tangles circle8-cycle-m2": "943f868c6061d96fde765a47853fb00d837496c0999f1b473534d5eee4e03336",
    "circle-tangles circle8-inline-zeros": "04cc855786731f2b6ca7b00c3defcf2e1ae2dec342e8545380b53db75f78b6fa",
    "circle-tangles circle6-cycle-m1n5": "c0f9b0672983528a1b8828e79acf8bc3f8e718d49438f5db9c8e059418972453",
    "circle-tangles circle6-cycle-m2n5": "c288a1ead4f03cb16a87137f693a25294328438701b6ba033dad8a4d2f64e0db",
    "circle-tangles circle6-cycle-m3n6": "4a0c4723b632c734bff389e5bb4ac7905408a01ed5403ec231a57431b692ce62",
    "circle-tangles circle6-complete-m1n5": "f6216a7c9641f4d488b85c5cc0b4b2310efb9db423b2f628c6040d7b223dfa5d",
    "circle-tangles circle6-complete-m2n5": "cd4df35f7713067f740b8485b2432430617c78a482c43e773fc2b53f7f0b70cf",
    "circle-tangles circle6-complete-m3n6": "d3827f072981a3706af6845fd0f36713e028a82d471d78523780da7df17f8b9b",
    "circle-tangles circle7-cycle-m1n5": "6847318ab57a3ba315d33a26e8e0dfa41bf47db18256a33e8be666ca2bc6153f",
    "circle-tangles circle7-cycle-m2n5": "9178247e9c6519b71962f98c04082863fceff69982a79a03e91e4f0bf06b29c2",
    "circle-tangles circle7-cycle-m3n6": "e7f2e76550011bd8e74b6da314c03958110e81ba748f7271afa940a9b1d2e375",
    "circle-tangles circle7-complete-m1n5": "b3ead94f88442bee2b6c00e10a836676ed059d17b4eb8447c7f98500ce8d200d",
    "circle-tangles circle7-complete-m2n5": "abffc9a550f53314006159859887a2655c6de9ea36f55f00c3563f5e900a5468",
    "circle-tangles circle7-complete-m3n6": "417f7a6c2f5f9ab29d45633ed5ad1f1b92e811eb909b949929791a264617f7ea",
    "canonical-tot star7": "fd75a1b5750cf63e6ed7ee984de0a3396a1074f2f4a589641cf736eabb142b41",
}


def _inputs(tmp_path):
    for name, text in GRAPHS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        for command in ("canonical-tot", "clique-tot", "tot", "tangles"):
            yield f"{command} {name}", [command, "--input", str(path)]
    for name, text in CANONICAL_GRAPHS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        yield f"canonical-tot {name}", ["canonical-tot", "--input", str(path)]
    for name, (doc, order, m, n) in CIRCLES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv = ["circle-tangles", "--input", str(path), "--order-fn", order, "--m", str(m), "--n", str(n)]
        yield f"circle-tangles {name}", argv


def test_cli_stdout_digests_are_pinned(capsys, tmp_path):
    got = {}
    for key, argv in _inputs(tmp_path):
        assert main(argv) == 0, key
        got[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == DIGESTS
