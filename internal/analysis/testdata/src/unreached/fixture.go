// Fixture for unreached: a package-level name or method that no
// non-test file references is reported; methods that satisfy a used
// interface or that the standard library finds by name are not, and a
// use inside a name's own declaration does not count. init is exempt
// and is the fixture's one root.
package unreached

import "fmt"

func init() {
	var s shape = &square{side: 2}
	fmt.Println(s.area(), used(), Stack[int]{}.Push(1), color(0), waivedButUsed())
}

// shape is an interface the fixture uses; square's area satisfies it.
type shape interface{ area() int }

type square struct{ side int }

func (s *square) area() int { return s.side * s.side }

func (s *square) Perimeter() int { return 4 * s.side } // want `method \(\*square\)\.Perimeter is referenced by no non-test file of the module`

type color int

func (c color) String() string { return "red" }

func used() int { return helper() }

func helper() int { return 1 }

func unusedHelper() {} // want `func unusedHelper is referenced by no non-test file`

func ExportedFunc() {} // want `func ExportedFunc is referenced by no non-test file`

type ExportedType struct{} // want `type ExportedType is referenced by no non-test file`

const ExportedConst = 1 // want `const ExportedConst is referenced by no non-test file`

var exportedVar = 2 // want `var exportedVar is referenced by no non-test file`

// OnlyTests is called from fixture_test.go and from nowhere else.
func OnlyTests() int { return 2 } // want `func OnlyTests is referenced by no non-test file`

// Stack's Push is reached through the instantiation Stack[int].
type Stack[T any] struct{ items []T }

func (s Stack[T]) Push(v T) Stack[T] {
	s.items = append(s.items, v)
	return s
}

func (s Stack[T]) Pop() Stack[T] { return s } // want `method \(Stack\[T\]\)\.Pop is referenced by no non-test file`

// countdown calls only itself.
func countdown(n int) int { // want `func countdown is referenced by no non-test file`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// orphan appears only in its own method's receiver.
type orphan struct{} // want `type orphan is referenced by no non-test file`

func (orphan) Do() {} // want `method \(orphan\)\.Do is referenced by no non-test file`

//lint:ignore unreached fixture: a waiver that silences a real finding
func Waived() {}

//lint:ignore unreached fixture: waives a name that is used // want `unused suppression for unreached`
func waivedButUsed() int { return 3 }
