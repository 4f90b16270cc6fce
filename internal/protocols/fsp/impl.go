package fsp

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file is the concrete Go FSP implementation: an in-memory filesystem
// served over the FSP wire format, plus the glob-expanding client utilities.
// It exists so that the Trojan messages Achilles discovers on the NL models
// can be injected into a "real deployment" (paper §4.1: concrete examples
// feed fire-drill fault injection) and their §6.3 impact demonstrated:
//
//   - a Trojan MAKE_DIR/INSTALL with a literal '*' creates an entry that
//     correct clients cannot remove without collateral damage, and
//   - a Trojan with an early NUL smuggles arbitrary payload bytes past the
//     parser.

// Wire layout (bytes): cmd(1) sum(1) key(2) seq(2) len(2) pos(4) buf(len).
const wireHeader = 12

// Errors returned by the server.
var (
	ErrNotFound   = errors.New("fsp: not found")
	ErrExists     = errors.New("fsp: already exists")
	ErrBadPacket  = errors.New("fsp: malformed packet")
	ErrBadCommand = errors.New("fsp: unknown command")
)

// FS is the server's in-memory filesystem. Names are flat (FSP paths are
// normalised to a single directory for this reproduction); '*' is a regular
// character to the server, exactly as in FSP.
type FS struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
}

// NewFS creates an empty filesystem.
func NewFS() *FS {
	return &FS{files: map[string][]byte{}, dirs: map[string]bool{}}
}

// Put creates or replaces a file.
func (fs *FS) Put(name string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[name] = append([]byte{}, data...)
}

// Get reads a file.
func (fs *FS) Get(name string) ([]byte, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[name]
	return d, ok
}

// List returns all file and directory names, sorted.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for n := range fs.files {
		out = append(out, n)
	}
	for n := range fs.dirs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Server is the concrete FSP server.
type Server struct {
	FS *FS
	// SmuggledBytes counts payload bytes that arrived beyond the first NUL
	// of a path — data the parser silently ignores (the mismatched-length
	// bug's smuggling channel).
	SmuggledBytes int
	// Log records the actions performed, for the injection harness.
	Log []string
}

// NewServer creates a server over a fresh filesystem.
func NewServer() *Server { return &Server{FS: NewFS()} }

// Checksum computes the FSP-style packet checksum: the byte sum of the
// packet with the sum field zeroed, truncated to one byte.
func Checksum(pkt []byte) byte {
	var s int
	for i, b := range pkt {
		if i == 1 {
			continue
		}
		s += int(b)
	}
	s += len(pkt)
	return byte(s)
}

// Encode builds a wire packet from a command, path payload and extra bytes.
func Encode(cmd byte, buf []byte) []byte {
	pkt := make([]byte, wireHeader+len(buf))
	pkt[0] = cmd
	pkt[6] = byte(len(buf))
	pkt[7] = byte(len(buf) >> 8)
	copy(pkt[wireHeader:], buf)
	pkt[1] = Checksum(pkt)
	return pkt
}

// EncodeFields converts an Achilles field-vector message (the analysis
// representation) into a wire packet. The annotated sum field is replaced
// with the real checksum — the injection harness restores what the analysis
// masked (§5.2).
func EncodeFields(msg []int64) ([]byte, error) {
	if len(msg) != NumFields {
		return nil, fmt.Errorf("%w: %d fields", ErrBadPacket, len(msg))
	}
	l := msg[FieldLen]
	if l < 0 || l > MaxPath {
		return nil, fmt.Errorf("%w: bb_len %d", ErrBadPacket, l)
	}
	buf := make([]byte, l)
	for i := int64(0); i < l; i++ {
		buf[i] = byte(msg[FieldBuf+i])
	}
	return Encode(byte(msg[FieldCmd]), buf), nil
}

// DecodeFields converts a wire packet back to the analysis field vector.
func DecodeFields(pkt []byte) ([]int64, error) {
	if len(pkt) < wireHeader {
		return nil, ErrBadPacket
	}
	l := int(pkt[6]) | int(pkt[7])<<8
	if l != len(pkt)-wireHeader || l > MaxPath {
		return nil, fmt.Errorf("%w: bb_len %d vs payload %d", ErrBadPacket, l, len(pkt)-wireHeader)
	}
	msg := make([]int64, NumFields)
	msg[FieldCmd] = int64(pkt[0])
	msg[FieldLen] = int64(l)
	for i := 0; i < l; i++ {
		msg[FieldBuf+i] = int64(pkt[wireHeader+i])
	}
	return msg, nil
}

// Handle processes one packet and returns the reply payload.
func (s *Server) Handle(pkt []byte) ([]byte, error) {
	if len(pkt) < wireHeader {
		return nil, ErrBadPacket
	}
	if pkt[1] != Checksum(pkt) {
		return nil, ErrBadPacket
	}
	l := int(pkt[6]) | int(pkt[7])<<8
	if l != len(pkt)-wireHeader {
		return nil, ErrBadPacket
	}
	buf := pkt[wireHeader:]
	// C-string parse: the path ends at the first NUL; anything after it is
	// silently ignored (the smuggling channel Achilles exposed).
	path := string(buf)
	if i := strings.IndexByte(path, 0); i >= 0 {
		s.SmuggledBytes += len(path) - i - 1
		path = path[:i]
	}
	for i := 0; i < len(path); i++ {
		if path[i] < CharMin || path[i] > CharMax {
			return nil, ErrBadPacket
		}
	}
	return s.dispatch(pkt[0], path)
}

func (s *Server) dispatch(cmd byte, path string) ([]byte, error) {
	s.Log = append(s.Log, fmt.Sprintf("%d %q", cmd, path))
	fs := s.FS
	switch int64(cmd) {
	case cmdCode("get_dir"):
		return []byte(strings.Join(fs.List(), "\n")), nil
	case cmdCode("get_file"), cmdCode("grab_file"):
		d, ok := fs.Get(path)
		if !ok {
			return nil, ErrNotFound
		}
		if int64(cmd) == cmdCode("grab_file") {
			fs.mu.Lock()
			delete(fs.files, path)
			fs.mu.Unlock()
		}
		return d, nil
	case cmdCode("del_file"):
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if _, ok := fs.files[path]; !ok {
			return nil, ErrNotFound
		}
		delete(fs.files, path)
		return []byte("ok"), nil
	case cmdCode("del_dir"):
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if !fs.dirs[path] {
			return nil, ErrNotFound
		}
		delete(fs.dirs, path)
		return []byte("ok"), nil
	case cmdCode("make_dir"):
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if fs.dirs[path] {
			return nil, ErrExists
		}
		fs.dirs[path] = true
		return []byte("ok"), nil
	case cmdCode("get_pro"):
		return []byte("rw"), nil
	case cmdCode("stat"):
		if _, ok := fs.Get(path); ok {
			return []byte("file"), nil
		}
		fs.mu.Lock()
		isDir := fs.dirs[path]
		fs.mu.Unlock()
		if isDir {
			return []byte("dir"), nil
		}
		return nil, ErrNotFound
	}
	return nil, ErrBadCommand
}

func cmdCode(name string) int64 {
	for _, c := range Commands {
		if c.Name == name {
			return c.Code
		}
	}
	panic("fsp: unknown command " + name)
}

// ImplAccepts replays an analysis field-vector message through a fresh
// concrete server over the real wire format. The annotated header fields
// must sit at the constants the analysis masked (EncodeFields restores the
// real checksum in their place). A reply — or a failed filesystem action
// such as "not found" — counts as accepted: the packet passed every
// validation check and the server attempted the operation, which is the
// model's accept marker.
func ImplAccepts(msg []int64) bool {
	if len(msg) != NumFields {
		return false
	}
	if msg[FieldSum] != 0 || msg[FieldKey] != 0 || msg[FieldSeq] != 0 || msg[FieldPos] != 0 {
		return false
	}
	pkt, err := EncodeFields(msg)
	if err != nil {
		return false
	}
	_, err = NewServer().Handle(pkt)
	return err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrExists)
}

// Client is the concrete glob-expanding FSP client.
type Client struct {
	// Send delivers a packet to the server and returns the reply (UDP in
	// deployment; direct in tests).
	Send func(pkt []byte) ([]byte, error)
}

// globMatch implements FSP's simple globbing: '*' matches any character
// sequence. There is no escape character (the root cause of §6.3's
// wildcard bug).
func globMatch(pattern, name string) bool {
	if pattern == "" {
		return name == ""
	}
	if pattern[0] == '*' {
		for i := 0; i <= len(name); i++ {
			if globMatch(pattern[1:], name[i:]) {
				return true
			}
		}
		return false
	}
	return name != "" && pattern[0] == name[0] && globMatch(pattern[1:], name[1:])
}

// Expand glob-expands a source argument against the server's listing. A
// pattern with no matches expands to nothing: a correct client never sends
// a literal '*'.
func (c *Client) Expand(arg string) ([]string, error) {
	if !strings.ContainsRune(arg, '*') {
		return []string{arg}, nil
	}
	reply, err := c.Send(Encode(byte(cmdCode("get_dir")), nil))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, name := range strings.Split(string(reply), "\n") {
		if name != "" && globMatch(arg, name) {
			out = append(out, name)
		}
	}
	return out, nil
}

// Run executes one client utility: glob-expands the argument and issues one
// command per expansion. It returns the paths that were operated on.
func (c *Client) Run(utility string, arg string) ([]string, error) {
	code := cmdCode(utility)
	targets, err := c.Expand(arg)
	if err != nil {
		return nil, err
	}
	for _, tgt := range targets {
		// bb_len counts the path characters; no NUL terminator is sent
		// (matching the NL client models: a correct client's payload never
		// contains a NUL).
		if _, err := c.Send(Encode(byte(code), []byte(tgt))); err != nil {
			return targets, err
		}
	}
	return targets, nil
}

// DirectClient wires a Client straight into a Server (no network).
func DirectClient(s *Server) *Client {
	return &Client{Send: s.Handle}
}
