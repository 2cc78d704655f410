import sys

from .front import main

sys.exit(main())
