// Package fileservice implements the File Service (§3.3, §4.6): settop
// access to files, exported by implementing the naming-context protocol —
// "the file service implements a subclass of the NamingContext interface
// called a FileSystemContext.  It exports additional operations for file
// creation.  The file system exports its objects by binding
// FileSystemContext objects into the cluster-wide name space."
//
// Because FileSystemContext speaks the context protocol (the "+ctx" type
// suffix), the name service recurses into it transparently: resolving
// "files/fonts/helvetica" in the cluster root crosses from the name
// service into this service mid-path (§4.3's third class of binding).
package fileservice

import (
	"sort"
	"strings"
	"sync"

	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// IDL interface names.  TypeDir carries the "+ctx" marker that tells the
// name service this object implements the context protocol.
const (
	TypeDir  = "itv.FileSystemContext+ctx"
	TypeFile = "itv.File"
)

// Service is an in-memory file system exported as naming contexts.
type Service struct {
	sess *core.Session

	mu   sync.Mutex
	dirs map[string]*dir // path ("" = root) -> directory
}

type dir struct {
	files map[string][]byte
	subs  map[string]bool
}

// New builds an empty file service rooted at objectID "fs".
func New(sess *core.Session) *Service {
	s := &Service{
		sess: sess,
		dirs: map[string]*dir{"": newDir()},
	}
	sess.Ep.Register(dirObjectID(""), &dirSkel{s: s, path: ""})
	return s
}

func newDir() *dir { return &dir{files: make(map[string][]byte), subs: make(map[string]bool)} }

func dirObjectID(path string) string  { return "fs:" + path }
func fileObjectID(path string) string { return "file:" + path }

// RootRef returns the root FileSystemContext reference, suitable for
// binding into the cluster name space.
func (s *Service) RootRef() oref.Ref {
	return oref.Persistent(s.sess.Ep.Addr(), TypeDir, dirObjectID(""))
}

// Mount binds the file system's root into the cluster name space at name.
func (s *Service) Mount(name string) error {
	return s.sess.Root.Bind(name, s.RootRef())
}

func joinPath(base, name string) string {
	if base == "" {
		return name
	}
	return base + "/" + name
}

// Mkdir creates a directory (and its object) under the given path.
func (s *Service) Mkdir(path string) error {
	parts := names.SplitPath(path)
	if len(parts) == 0 {
		return orb.Errf(orb.ExcBadArgs, "empty path")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := ""
	for _, p := range parts {
		parent, ok := s.dirs[cur]
		if !ok {
			return orb.Errf(orb.ExcNotFound, "no directory %q", cur)
		}
		next := joinPath(cur, p)
		if _, isFile := parent.files[p]; isFile {
			return orb.Errf(orb.ExcAlreadyBound, "%q is a file", next)
		}
		if !parent.subs[p] {
			parent.subs[p] = true
			s.dirs[next] = newDir()
			// Registering under s.mu publishes the directory entry and its
			// skeleton atomically: any lookup that can see the dir can
			// invoke it.  Register pins Endpoint.mu only for a map insert
			// and never re-enters the file service, so the nesting cannot
			// form a cycle.
			s.sess.Ep.Register(dirObjectID(next), &dirSkel{s: s, path: next})
		}
		cur = next
	}
	return nil
}

// Create writes a file at path, creating parent directories.
func (s *Service) Create(path string, data []byte) error {
	parts := names.SplitPath(path)
	if len(parts) == 0 {
		return orb.Errf(orb.ExcBadArgs, "empty path")
	}
	dirPath := strings.Join(parts[:len(parts)-1], "/")
	if dirPath != "" {
		if err := s.Mkdir(dirPath); err != nil && !orb.IsApp(err, orb.ExcAlreadyBound) {
			return err
		}
	}
	name := parts[len(parts)-1]
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.dirs[dirPath]
	if !ok {
		return orb.Errf(orb.ExcNotFound, "no directory %q", dirPath)
	}
	if d.subs[name] {
		return orb.Errf(orb.ExcAlreadyBound, "%q is a directory", path)
	}
	fresh := true
	if _, exists := d.files[name]; exists {
		fresh = false
	}
	d.files[name] = data
	if fresh {
		full := joinPath(dirPath, name)
		s.sess.Ep.Register(fileObjectID(full), &fileSkel{s: s, dir: dirPath, name: name})
	}
	return nil
}

// Read returns a file's contents.
func (s *Service) Read(path string) ([]byte, error) {
	parts := names.SplitPath(path)
	if len(parts) == 0 {
		return nil, orb.Errf(orb.ExcBadArgs, "empty path")
	}
	dirPath := strings.Join(parts[:len(parts)-1], "/")
	name := parts[len(parts)-1]
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.dirs[dirPath]
	if !ok {
		return nil, orb.Errf(orb.ExcNotFound, "no directory %q", dirPath)
	}
	data, ok := d.files[name]
	if !ok {
		return nil, orb.Errf(orb.ExcNotFound, "no file %q", path)
	}
	return append([]byte(nil), data...), nil
}

// Remove deletes a file or empty directory.
func (s *Service) Remove(path string) error {
	parts := names.SplitPath(path)
	if len(parts) == 0 {
		return orb.Errf(orb.ExcBadArgs, "empty path")
	}
	dirPath := strings.Join(parts[:len(parts)-1], "/")
	name := parts[len(parts)-1]
	full := strings.Join(parts, "/")
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.dirs[dirPath]
	if !ok {
		return orb.Errf(orb.ExcNotFound, "no directory %q", dirPath)
	}
	if _, isFile := d.files[name]; isFile {
		delete(d.files, name)
		s.sess.Ep.Unregister(fileObjectID(full))
		return nil
	}
	if d.subs[name] {
		sub := s.dirs[full]
		if sub != nil && (len(sub.files) > 0 || len(sub.subs) > 0) {
			return orb.Errf(orb.ExcAlreadyBound, "directory %q not empty", full)
		}
		delete(d.subs, name)
		delete(s.dirs, full)
		s.sess.Ep.Unregister(dirObjectID(full))
		return nil
	}
	return orb.Errf(orb.ExcNotFound, "no entry %q", path)
}

// resolve maps a path relative to base to an object reference.
func (s *Service) resolve(base, name string) (oref.Ref, error) {
	parts := names.SplitPath(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := base
	for i, p := range parts {
		d, ok := s.dirs[cur]
		if !ok {
			return oref.Ref{}, orb.Errf(orb.ExcNotFound, "no directory %q", cur)
		}
		full := joinPath(cur, p)
		if d.subs[p] {
			cur = full
			continue
		}
		if _, isFile := d.files[p]; isFile {
			if i != len(parts)-1 {
				return oref.Ref{}, orb.Errf(orb.ExcNotContext, "%q is a file", full)
			}
			return oref.Persistent(s.sess.Ep.Addr(), TypeFile, fileObjectID(full)), nil
		}
		return oref.Ref{}, orb.Errf(orb.ExcNotFound, "no entry %q", full)
	}
	return oref.Persistent(s.sess.Ep.Addr(), TypeDir, dirObjectID(cur)), nil
}

// list returns the bindings of the directory at path relative to base.
func (s *Service) list(base, name string) ([]names.Binding, error) {
	ref, err := s.resolve(base, name)
	if err != nil {
		return nil, err
	}
	if ref.TypeID != TypeDir {
		return nil, orb.Errf(orb.ExcNotContext, "%q is not a directory", name)
	}
	path := strings.TrimPrefix(ref.ObjectID, "fs:")
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.dirs[path]
	if !ok {
		return nil, orb.Errf(orb.ExcNotFound, "no directory %q", path)
	}
	var out []names.Binding
	for sub := range d.subs {
		full := joinPath(path, sub)
		out = append(out, names.Binding{Name: sub,
			Ref: oref.Persistent(s.sess.Ep.Addr(), TypeDir, dirObjectID(full))})
	}
	for f := range d.files {
		full := joinPath(path, f)
		out = append(out, names.Binding{Name: f,
			Ref: oref.Persistent(s.sess.Ep.Addr(), TypeFile, fileObjectID(full))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ---- skeletons ----

// dirSkel exports one directory as a FileSystemContext.
type dirSkel struct {
	s    *Service
	path string
}

func (k *dirSkel) TypeID() string { return TypeDir }

func (k *dirSkel) Dispatch(c *orb.ServerCall) error {
	s := k.s
	switch c.Method() {
	case "resolve", "resolveAs":
		name := c.Args().String()
		if c.Method() == "resolveAs" {
			_ = c.Args().String() // caller host: selectors don't apply here
		}
		ref, err := s.resolve(k.path, name)
		if err != nil {
			return err
		}
		ref.MarshalWire(c.Results())
		return nil
	case "list":
		bs, err := s.list(k.path, c.Args().String())
		if err != nil {
			return err
		}
		names.PutBindings(c.Results(), bs)
		return nil
	case "createFile":
		// The FileSystemContext extension (§4.6: "additional operations
		// for file creation").
		name := c.Args().String()
		data := c.Args().Bytes()
		return s.Create(joinPath(k.path, name), data)
	case "mkdir":
		return s.Mkdir(joinPath(k.path, c.Args().String()))
	case "unbind":
		return s.Remove(joinPath(k.path, c.Args().String()))
	case "bind", "bindNewContext", "bindReplContext", "setSelector", "listRepl":
		return orb.Errf(orb.ExcNotContext,
			"file system contexts hold files, not arbitrary bindings")
	default:
		return orb.ErrNoSuchMethod
	}
}

// fileSkel exports one file.
type fileSkel struct {
	s    *Service
	dir  string
	name string
}

func (k *fileSkel) TypeID() string { return TypeFile }

func (k *fileSkel) Dispatch(c *orb.ServerCall) error {
	path := joinPath(k.dir, k.name)
	switch c.Method() {
	case "read":
		data, err := k.s.Read(path)
		if err != nil {
			return err
		}
		c.Results().PutBytes(data)
		return nil
	case "write":
		return k.s.Create(path, c.Args().Bytes())
	case "size":
		data, err := k.s.Read(path)
		if err != nil {
			return err
		}
		c.Results().PutInt(int64(len(data)))
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// File is the client proxy for a file object.
type File struct {
	Ep  *orb.Endpoint
	Ref oref.Ref
}

// Read fetches the file's contents.
func (f File) Read() ([]byte, error) {
	var data []byte
	err := f.Ep.Invoke(f.Ref, "read", nil,
		func(d *wire.Decoder) error { data = d.Bytes(); return nil })
	return data, err
}

// Write replaces the file's contents.
func (f File) Write(data []byte) error {
	return f.Ep.Invoke(f.Ref, "write",
		func(e *wire.Encoder) { e.PutBytes(data) }, nil)
}

// Size returns the file's length.
func (f File) Size() (int64, error) {
	var n int64
	err := f.Ep.Invoke(f.Ref, "size", nil,
		func(d *wire.Decoder) error { n = d.Int(); return nil })
	return n, err
}

// CreateFile invokes the file-creation extension on a directory context.
func CreateFile(ep names.Invoker, dir oref.Ref, name string, data []byte) error {
	return ep.Invoke(dir, "createFile",
		func(e *wire.Encoder) { e.PutString(name); e.PutBytes(data) }, nil)
}
