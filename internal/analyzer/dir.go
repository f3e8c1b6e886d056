package analyzer

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// AnalyzeDir analyzes every .go file under dir (recursively, skipping
// _test.go files, testdata and hidden directories), each in isolation,
// into one report for the directory. A file that fails to parse fails
// the call.
func AnalyzeDir(dir string) (*Report, error) {
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analyzer: walking %s: %w", dir, err)
	}
	sort.Strings(files)
	var funcs []FuncReport
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		w, err := isolated(path, src)
		if err != nil {
			return nil, err
		}
		funcs = append(funcs, w.funcs()...)
	}
	return isolatedReport(dir, funcs), nil
}
