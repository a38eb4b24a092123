import gc
import sys

# no GC pass over the import-time objects: `main` freezes them, then
# turns the GC back on
gc.disable()

from .cli import main

sys.exit(main())
