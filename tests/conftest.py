import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--deep",
        action="store_true",
        default=False,
        help="also verify A into Sym(7), the other Sym(7) pins and the Sym(6) "
             "search-node pins (no runtime bound)",
    )


@pytest.fixture
def deep(request):
    return request.config.getoption("--deep")
