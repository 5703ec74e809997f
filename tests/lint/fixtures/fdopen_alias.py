"""Anti-pattern: a second file object for one descriptor, built outside
builtins.open (os.fdopen would go through the rebound io.open)."""

import io
import os


def main():
    fd = os.open("/tmp/log.txt", os.O_CREAT | os.O_WRONLY)
    fh = io.FileIO(fd, "wb")
    fh.close()


if __name__ == "__main__":
    main()
