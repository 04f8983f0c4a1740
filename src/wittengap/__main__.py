from wittengap.cli import main

raise SystemExit(main())
