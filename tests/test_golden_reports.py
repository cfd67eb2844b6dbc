"""Golden digests of CLI reports whose values are exact.

Each report below holds only dyadic-exact numbers (sums and products of
+-1 and powers of two, and log2 of powers of two) or booleans, so its bytes
do not depend on the BLAS or libm build.  The digests were recorded with
gptlab 0.1.0, in every format (``table`` is the default one); a report whose bytes change is a schema or behaviour change
and must update this table on purpose.  Reports that carry Blahut-Arimoto
or libm floats are left out, except the two ``verify --suite baseline``
reports: they pin the falsifiers' random stream (the draw layout of
``random_measurements`` and of the baselines' blocks), so a change to that
layout must re-record them on purpose.  Their maxima are
libm and BLAS floats; they were recorded with numpy 2.4.6 (OpenBLAS) on an
AVX-512 x86-64 host.
"""

import contextlib
import hashlib
import io
import tracemalloc

import pytest

from gptlab.cli import main

GOLDEN = {
    "dense-coding --n-bits 1 --format json": "e570c83c79c030569bf2dad0fdda6311a54dcc9b1f7a78dfed402a7eedfd7b1d",
    "dense-coding --n-bits 1 --format csv": "b3a1517335d6a123be6fca73846cb28eca8d944b3b17e7d6dfd482e84257ed82",
    "swap --n-bits 1 --mu 1 --format json": "3f73f96e1d217715bbde77b3a8a7f43bb9b1506fb6185afd5b78ad9f61266365",
    "dense-coding --n-bits 2 --format json": "3c4b7dea362622ad500f8ce6fe77f3bad5214ffbf9ac8b69eb3c093c204d6a4f",
    "dense-coding --n-bits 2 --theory embedded --m 2 --format json": "f50c0d65e02de0834d67e4a3935b47810e3afb8d2b63423c4368170a9a6a2fee",
    "dense-coding --n-bits 2 --format csv": "04c7898d7cc655e2b23377425488afdb50979458a5d5df6fe5c83fba6dd9e8c3",
    "dense-coding --n-bits 2 --theory embedded --m 2 --format csv": "04c7898d7cc655e2b23377425488afdb50979458a5d5df6fe5c83fba6dd9e8c3",
    "swap --n-bits 2 --mu 3 --format json": "a58ad6004720afc0764a8a3f3d109abe7d9f967129c907f989fd8ca0cac900f3",
    "dense-coding --n-bits 3 --format json": "465f95d32ec9884bb4d8d5d0216bc6c86d7452f98f5ff84b4b8dfb6c9ab9fa99",
    "dense-coding --n-bits 3 --theory embedded --m 2 --format json": "9a53bdca4eadb58a28ba4bd0a14e8cabacea94609b02d352e39e14f1279b992a",
    "dense-coding --n-bits 3 --format csv": "d6bdd63400747fe95c12e4e391438339ed8d94b3ce364b24e63b9dafd577d490",
    "dense-coding --n-bits 3 --theory embedded --m 2 --format csv": "d6bdd63400747fe95c12e4e391438339ed8d94b3ce364b24e63b9dafd577d490",
    "swap --n-bits 3 --mu 7 --format json": "c5678e47ff9721c61110aa8cae4f25889a3244b35ce2961b7102a661795d3bb3",
    "dense-coding --n-bits 4 --format json": "c6a1174cca6887ac9312fd9b2731a13e8f069798292ef190cd26caf7f8846a94",
    "dense-coding --n-bits 4 --theory embedded --m 2 --format json": "7d7dfe8b93bd5dbb1cf9f3042650327f907db998d510caa1567395b0511358e2",
    "dense-coding --n-bits 4 --format csv": "096439f86b90a1193407f22eca45d965be8c4ec531bc686c7d0ea0f1ab0e0866",
    "dense-coding --n-bits 4 --theory embedded --m 2 --format csv": "096439f86b90a1193407f22eca45d965be8c4ec531bc686c7d0ea0f1ab0e0866",
    "swap --n-bits 4 --mu 15 --format json": "b81093a165c9683ad6441164f165c4e5a64f96fed218e226bb1b5ad7bd19753c",
    "dense-coding --n-bits 5 --format json": "cbb955f79fe6c29a50180210b1e4617be298602a6757a42b1447c8c492ebcea0",
    "dense-coding --n-bits 5 --theory embedded --m 2 --format json": "5b43add9bf574e8a47658d2ace91f5ea7ff3f1ee70e1aa60aa531d75866863ec",
    "dense-coding --n-bits 5 --format csv": "4b174fbf1d7e80e60242190d860737516699250f0b384ca84327853e82e5a04f",
    "dense-coding --n-bits 5 --theory embedded --m 2 --format csv": "4b174fbf1d7e80e60242190d860737516699250f0b384ca84327853e82e5a04f",
    "swap --n-bits 5 --mu 31 --format json": "77990c26441384f46c34b1c66a8afd62ed4f280f85c622ae4df6a59941f42a4a",
    "dense-coding --n-bits 6 --format json": "0f4b8bdb8d75f27f0d9a7ca7ce74aa9f28644e0b74232d0a1ec9b3741f5e9dc5",
    "dense-coding --n-bits 6 --theory embedded --m 2 --format json": "d74d9a32342c6c822095dd85715dafc2cd95aa3566f104859d312f578a24428f",
    "dense-coding --n-bits 6 --format csv": "ae9ba2fde6395a04d19c1cc6495c9e9056e177f4e07663eb5786ce5b1e5cd0fb",
    "dense-coding --n-bits 6 --theory embedded --m 2 --format csv": "ae9ba2fde6395a04d19c1cc6495c9e9056e177f4e07663eb5786ce5b1e5cd0fb",
    "swap --n-bits 6 --mu 63 --format json": "84e8b61105314168c5eb2295f5cd938121745fe4de49dfe69c080d807daa3888",
    "teleport --n-bits 1 --format json": "b9f6679ab25ca221b53fd4295b0f624dac7b9399cd51317c9a74349f41537a48",
    "teleport --n-bits 2 --format json": "ed1b14f676be5957086ff5300e5183ce3ebfbe70880dd05bfb865bbe0cf5432e",
    "teleport --n-bits 2 --format csv": "e72ebd6eb8b216b2f46d75c0f93fcecadf084208956817948ecd9abca2f6784d",
    "teleport --n-bits 3 --format json": "7dd42e86faf8d94279b7489c1be8b4af18ce497e2fa5d8db43528237f8f7804d",
    "teleport --n-bits 3 --state axis:2 --seed 5 --format json": "01fbf5a61aaa262415734cf9e91e276a57aac9a4dbeecbe49c37f895f360845e",
    "teleport --n-bits 4 --format json": "58b44ee973ce75d5752dd7e24a00013ffe17bbbb65dbea5d4183a900c8090605",
    "dense-coding --n-bits 4 --theory embedded --m 1 --format json": "ca3b609a58b6df55c7732c6578c773c9ff17d65cada5fb201657d04e90dc69d1",
    "dense-coding --n-bits 6 --theory embedded --m 4 --seed 3 --format json": "bc15b35d93ebbe0c9ea526b0bccfdd232f5f522f2b51f36b807949d4c34426db",
    "dense-coding --n-bits 8 --theory embedded --m 3 --seed 1 --format csv": "3b2f7310be7807253d03fc78b6bb6016ac413e31e46ce3204aaf616aaeb3d842",
    "teleport --n-bits 6 --seed 2 --format json": "1c704e2d10da14ef29875d1e6855ac6608cfc994c86c3d15c4675663334d8cbd",
    "verify --suite consistency --trials 200 --seed 1 --format json": "ea21a1b3c69037f2a0ade0d7edf451c703005424ed3e7218e7baed64d35dc06d",
    "verify --suite consistency --format json": "f19f81d00c67f728339384e2deb56c18f51ad5a1d24b6d7017154eea928f54df",
    "verify --suite consistency --trials 10 --seed 3 --format json": "19f6f5c96b337d99b1900d9762683d41899e3663d47fd33331a3b70094011cf4",
    "verify --suite group --format json": "96418a43d38252ac194229fe019daf1ca8fab5d25089d976f68e210442c26b64",
    "verify --suite lemmas --format json": "0ffa7147e9cdafcc9a1c40327691ae61e499e830d70d9a15ef8cb032fe031134",
    "verify --suite tomography --format json": "d7f9ec5e6d66b6b0105c94a9929a59db24c1b1740b9bc5639b595327a591b3f0",
    "verify --suite baseline --trials 64 --seed 0 --format json": "44c396172ab9078326ee38490814b9c46abd59eaf0eebb96519f94cc043043d0",
    "verify --suite baseline --trials 1000 --seed 7 --format csv": "776201f4029b90b1df7ab9a9649d9b96ec9694b63c490723670b98b29a80e1d4",
    "dense-coding --n-bits 3 --format table": "9e9a8258626fc3c7ffa4e8c276466e61c666b67aeb518c1b0ac200eeadf49312",
    "dense-coding --n-bits 3 --theory embedded --m 2 --format table": "78ac2cea0627ac913a7dad10c2de6fccf15ff1d701bf55e76ac076decd00d09d",
    "teleport --n-bits 2 --format table": "5a2d1aa29c96c8faf8c8d93743b555be57d02aeaf98de14d1fbf5912487f53a1",
    "swap --n-bits 3 --mu 5 --format table": "1632e08253efdf798213ca75f71d50b4ee75bac5429329796887473085ec58bd",
    "swap --n-bits 3 --mu 5 --format csv": "c7107224a33f047b2c1df78dfdf5cd6a72d9d681d21119543eae4955ca53526a",
    "verify --suite group --format table": "35b3155735519c1506a3df0994f9206428baefbfdc73a8f976cf40d680464d85",
    "verify --suite group --format csv": "24bae92a5b5f5faa1b92cd466aa6bbb1eea59e4e08eb4a6d348d7fd56d974a5e",
    "verify --suite tomography --format table": "f5b63efe226946fad10c645f4015bb100f6e6c6ebd26effe4124d553682e6fb7",
    "verify --suite lemmas --format table": "91118a81841f07c58a8a86e8f893c582086411ce171d9b7cadcc26afff19b7ff",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_bytes_match_the_golden_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[command]


def test_reports_after_an_argument_error_and_version_match_the_golden_digests():
    # ``main`` parses every call with one shared parser; an argument error
    # or ``--version`` that leaves through SystemExit must not change it.
    for argv, code in ((["dense-coding", "--n-bits", "x"], 2), (["--version"], 0)):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ), pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == code
    for command in sorted(GOLDEN):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(command.split()) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[command], command


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_report_memory_stays_within_ten_times_its_bytes(fmt):
    # With only the requested format built and JSON written straight into
    # its buffer, the traced peak (channel arrays included) is about 6x the
    # report at N = 9. Building the CSV rows for every format, or joining
    # JSON from one list of chunks, takes it past 12x.
    argv = ["dense-coding", "--n-bits", "9", "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 10 * len(out.getvalue().encode())
