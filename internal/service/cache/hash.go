// Package cache provides the content-addressed artifact store underneath
// the compiler's kernel-latency cache: canonical content hashing, a Store
// interface with in-memory, versioned on-disk and fleet-peer
// implementations, and the key and payload format of a persisted kernel
// latency (the paper's offline tile-latency cache, §3.10 — explicitly a
// reusable artifact that should survive process restarts). Each measured
// kernel is one immutable entry, so stores never merge or overwrite tables.
//
// The package is a leaf: cmds, core and the compiler can hash
// configurations and attach stores without importing the service itself.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"sort"
)

// CanonicalHash computes a content hash of the given values with a
// canonical, order-independent encoding: struct fields are walked in
// sorted name order (so two configs assembled differently — or structs
// whose field declarations move — hash identically when their contents
// are equal) and map entries in sorted key order. Scalars append
// "name=value;" pairs. The hash keys the service's compile cache and the
// on-disk artifact store, so it must be stable across processes: only data
// reachable from the values contributes, never addresses or iteration
// order.
func CanonicalHash(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		writeCanonical(h, "", reflect.ValueOf(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// latencyKeyPrefix starts every kernel-latency key and names the payload
// format (EncodeLatency's decimal cycle count): a new format takes a new
// prefix, so entries in an older format are never read.
const latencyKeyPrefix = "lat2-"

// LatencyKey is the store key of one kernel latency: the kernel signature
// sig measured on the core configuration whose CanonicalHash is coreHash.
// Latencies depend only on the core and the kernel, so every model compiled
// for the same core shares its kernels' entries. The pair is hashed, so any
// signature yields a short key that is safe as a file name and URL path.
func LatencyKey(coreHash, sig string) string {
	h := sha256.New()
	h.Write([]byte(coreHash))
	h.Write([]byte{0})
	h.Write([]byte(sig))
	return latencyKeyPrefix + hex.EncodeToString(h.Sum(nil))
}

func writeCanonical(h hash.Hash, name string, v reflect.Value) {
	if !v.IsValid() {
		fmt.Fprintf(h, "%s=<nil>;", name)
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(h, "%s=<nil>;", name)
			return
		}
		writeCanonical(h, name, v.Elem())
	case reflect.Struct:
		t := v.Type()
		idx := make([]int, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				idx = append(idx, i)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return t.Field(idx[a]).Name < t.Field(idx[b]).Name })
		fmt.Fprintf(h, "%s{", name)
		for _, i := range idx {
			writeCanonical(h, t.Field(i).Name, v.Field(i))
		}
		fmt.Fprintf(h, "}")
	case reflect.Map:
		keys := make([]string, 0, v.Len())
		byKey := map[string]reflect.Value{}
		iter := v.MapRange()
		for iter.Next() {
			k := fmt.Sprintf("%v", iter.Key().Interface())
			keys = append(keys, k)
			byKey[k] = iter.Value()
		}
		sort.Strings(keys)
		fmt.Fprintf(h, "%smap{", name)
		for _, k := range keys {
			writeCanonical(h, k, byKey[k])
		}
		fmt.Fprintf(h, "}")
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(h, "%s[", name)
		for i := 0; i < v.Len(); i++ {
			writeCanonical(h, fmt.Sprintf("%d", i), v.Index(i))
		}
		fmt.Fprintf(h, "]")
	default:
		fmt.Fprintf(h, "%s=%v;", name, v.Interface())
	}
}
