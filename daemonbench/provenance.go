package main

// Provenance: what a report's figures were measured on.

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func provenance(root string, seed int64) map[string]any {
	p := map[string]any{
		"seed":       seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
		"tree":       treeDigest(root),
	}
	// Only a checkout of its own: git would otherwise report the commit
	// of whatever repository encloses the tree.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			p["commit"] = strings.TrimSpace(string(out))
		}
	}
	return p
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	for _, line := range strings.Split(readTrim("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeDigest identifies the tree under test when it is not a git
// checkout: a SHA-256 over the paths and contents of its Go sources and
// go.mod files, scratch directories excluded.
func treeDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
