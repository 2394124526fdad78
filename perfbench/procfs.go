package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procTree reads process accounting from a /proc-shaped directory. The
// root is a field so the self-tests can hand it a fake tree.
type procTree struct{ root string }

var proc = procTree{root: "/proc"}

// statFields returns the fields of /proc/<pid>/stat after the command
// name, which is parenthesised and may itself contain spaces or ')'.
func (p procTree) statFields(pid int) ([]string, error) {
	b, err := os.ReadFile(filepath.Join(p.root, strconv.Itoa(pid), "stat"))
	if err != nil {
		return nil, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return nil, fmt.Errorf("proc: malformed stat for pid %d", pid)
	}
	// fields[0] is the state (stat field 3), so stat field k is fields[k-3].
	return strings.Fields(s[i+1:]), nil
}

// children lists the direct children of pid by scanning every process's
// parent field.
func (p procTree) children(pid int) ([]int, error) {
	ents, err := os.ReadDir(p.root)
	if err != nil {
		return nil, err
	}
	var kids []int
	for _, e := range ents {
		c, err := strconv.Atoi(e.Name())
		if err != nil || c == pid {
			continue
		}
		f, err := p.statFields(c)
		if err != nil || len(f) < 2 {
			continue // exited between ReadDir and ReadFile
		}
		if ppid, _ := strconv.Atoi(f[1]); ppid == pid {
			kids = append(kids, c)
		}
	}
	return kids, nil
}

// cpuSeconds is the user+system CPU time pid has used so far.
func (p procTree) cpuSeconds(pid int) (float64, error) {
	f, err := p.statFields(pid)
	if err != nil {
		return 0, err
	}
	if len(f) < 13 {
		return 0, fmt.Errorf("proc: short stat for pid %d", pid)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // stat field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // stat field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc: bad cpu times for pid %d", pid)
	}
	return float64(utime+stime) / clockTicks, nil
}

// hwmMB is pid's peak resident set size (VmHWM) in MiB.
func (p procTree) hwmMB(pid int) (float64, error) {
	f, err := os.Open(filepath.Join(p.root, strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			break
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("proc: no VmHWM for pid %d", pid)
}

// treeUsage is one reading of a daemon and its direct children.
type treeUsage struct {
	SelfCPU, ChildCPU float64 // seconds
	HWMMB             float64 // sum of VmHWM over the daemon and children
	Children          int
}

// usage reads CPU and peak RSS for pid and each of its live children.
func (p procTree) usage(pid int) (treeUsage, error) {
	var u treeUsage
	var err error
	if u.SelfCPU, err = p.cpuSeconds(pid); err != nil {
		return u, err
	}
	if u.HWMMB, err = p.hwmMB(pid); err != nil {
		return u, err
	}
	kids, err := p.children(pid)
	if err != nil {
		return u, err
	}
	for _, c := range kids {
		cpu, err := p.cpuSeconds(c)
		if err != nil {
			continue
		}
		hwm, err := p.hwmMB(c)
		if err != nil {
			continue
		}
		u.ChildCPU += cpu
		u.HWMMB += hwm
		u.Children++
	}
	return u, nil
}
