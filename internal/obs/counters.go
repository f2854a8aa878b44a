package obs

import (
	"reflect"
	"sort"
)

// SortedKeys returns the keys of a counter map in sorted order. Every
// human- or machine-readable emission of a counter map (trace summary
// verbose listing, ssabench -trace-counters dump) ranges over this
// instead of the map directly, so repeated runs produce byte-identical
// output regardless of map iteration order.
func SortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Counters flattens the exported integer fields of a pass's Stats
// struct into a "prefix.Field" -> value map, recursing into nested
// structs (so interference query counters embedded in a pass's stats
// appear as e.g. "pinning-phi.Interference.KillQueries"). Non-integer
// fields are skipped; nil pointers contribute nothing. This runs only
// on the traced path, so the reflection cost never touches the default
// pipeline.
func Counters(prefix string, stats any) map[string]int64 {
	if stats == nil {
		return nil
	}
	v := reflect.ValueOf(stats)
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return nil
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return nil
	}
	dst := make(map[string]int64)
	addCounters(dst, prefix, v)
	if len(dst) == 0 {
		return nil
	}
	return dst
}

func addCounters(dst map[string]int64, prefix string, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		ft := t.Field(i)
		if !ft.IsExported() {
			continue
		}
		fv := v.Field(i)
		for fv.Kind() == reflect.Pointer {
			if fv.IsNil() {
				fv = reflect.Value{}
				break
			}
			fv = fv.Elem()
		}
		if !fv.IsValid() {
			continue
		}
		name := prefix + "." + ft.Name
		switch fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			dst[name] = fv.Int()
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			dst[name] = int64(fv.Uint())
		case reflect.Bool:
			if fv.Bool() {
				dst[name] = 1
			} else {
				dst[name] = 0
			}
		case reflect.Struct:
			addCounters(dst, name, fv)
		}
	}
}
