"""`python -m deconvbox`: the command line."""
from .cli import main

main()
