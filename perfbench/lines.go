package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// benchDir is this benchmark's own directory, left out of the program's
// line counts.
const benchDir = "perfbench"

// goLines counts the lines of the program's Go files under root,
// non-test and test separately. Hidden directories, testdata and the
// benchmark's own directory are skipped.
func goLines(root string) (src, tests int, err error) {
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == benchDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := bytes.Count(b, []byte("\n"))
		if strings.HasSuffix(name, "_test.go") {
			tests += n
		} else {
			src += n
		}
		return nil
	})
	return src, tests, err
}
