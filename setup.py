from setuptools import setup

# The compiled kernels are built only on request (README "Install"); the
# package runs on the pure-Python kernels in collatz_lab._pure without them.
setup()
