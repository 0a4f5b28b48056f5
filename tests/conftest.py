import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--deep",
        action="store_true",
        default=False,
        help="also verify the Sym(6) values and A into Sym(7) (no runtime bound)",
    )


@pytest.fixture
def deep(request):
    return request.config.getoption("--deep")
